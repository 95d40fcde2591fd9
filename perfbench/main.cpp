// perfbench: wall-clock benchmark of the shielded serving, attack and
// federated-learning paths. Usage:
//
//   perfbench --workload <serve_open|serve_offline|attack_pgd|fl_round>
//             --seed <n> --seconds <s> --trace <0|1> [--commit <id>] [--out <dir>]
//
// --trace 0 measures the end-to-end metrics with tracing off, times scaled to
// the reference speed (refclock.h). --trace 1 spends half the window
// untraced and half traced, and reports the per-layer metrics plus the
// tracing overhead (traced minus untraced p50).
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// A run record (host facts, every metric, notes, problems) and, for traced
// runs, a Chrome trace are written under --out.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "bench/common.h"
#include "refclock.h"
#include "stats.h"
#include "tensor/parallel.h"
#include "trace.h"

namespace perfbench {

/// `n` SCHED_IDLE spinners (see keep_awake_threads) that quiet_reading can
/// pause; stopped and joined on destruction.
class keep_awake {
public:
  explicit keep_awake(int n) {
    for (int i = 0; i < n; ++i) threads_.emplace_back([this] { spin(); });
  }
  ~keep_awake() {
    {
      const std::lock_guard<std::mutex> lock{m_};
      stop_ = true;
    }
    wake_.notify_all();
    for (std::thread& t : threads_) t.join();
  }
  keep_awake(const keep_awake&) = delete;
  keep_awake& operator=(const keep_awake&) = delete;

  /// Returns once no spinner spins.
  void pause() {
    std::unique_lock<std::mutex> lock{m_};
    paused_ = true;
    while (spinning_ != 0) parked_.wait(lock);
  }
  void resume() {
    {
      const std::lock_guard<std::mutex> lock{m_};
      paused_ = false;
    }
    wake_.notify_all();
  }

private:
  void spin() {
    sched_param param{};
    pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
    std::unique_lock<std::mutex> lock{m_};
    while (!stop_) {
      if (paused_) {
        wake_.wait(lock);
        continue;
      }
      ++spinning_;
      lock.unlock();
      while (!paused_.load(std::memory_order_relaxed) && !stop_.load(std::memory_order_relaxed))
        std::this_thread::yield();
      lock.lock();
      --spinning_;
      parked_.notify_all();
    }
  }

  std::mutex m_;
  std::condition_variable wake_;    // paused_ cleared or stop_ set
  std::condition_variable parked_;  // a spinner stopped spinning
  std::atomic<bool> paused_{false};  // written under m_
  std::atomic<bool> stop_{false};    // written under m_
  int spinning_ = 0;                 // guarded by m_
  std::vector<std::thread> threads_;
};

void quiet_reading(const run_options& o, workload_result& r, int runs) {
  if (o.awake != nullptr) o.awake->pause();
  const std::int64_t at = now_ns();
  r.refs.ms.push_back(o.readers != nullptr ? o.readers->read(runs) : read_reference(runs));
  r.refs.at_ns.push_back(at);
  if (o.awake != nullptr) o.awake->resume();
}

}  // namespace perfbench

namespace {

using perfbench::metric;
using perfbench::workload_result;

struct metric_spec {
  const char* name;
  const char* unit;
};

// Every per-layer metric, reported by every traced run; a layer the
// workload never reaches reports 0 (the bypass prediction).
constexpr metric_spec k_layers[] = {
    {"serve.queue_wait_ms", "ms"},     {"serve.call_ms", "ms"},
    {"serve.self_ms", "ms"},           {"serve.batches", "count"},
    {"serve.batch_size_mean", "count"}, {"models.forward_ms", "ms"},
    {"models.forward_share", "ratio"}, {"shield.walk_self_ms", "ms"},
    {"shield.masked_transforms", "count"}, {"shield.bytes", "B"},
    {"tee.store_ms", "ms"},            {"tee.stores", "count"},
    {"tee.hotcalls", "count"},         {"tee.bytes_in", "B"},
    {"tee.modeled_ns", "ns"},          {"autodiff.backward_ms", "ms"},
    {"attacks.query_ms", "ms"},        {"attacks.queries", "count"},
    {"attacks.step_self_ms", "ms"},    {"fl.broadcast_ms", "ms"},
    {"fl.receive_ms", "ms"},           {"fl.aggregate_ms", "ms"},
    {"fl.local_update_ms", "ms"},      {"fl.client_spread_ms", "ms"},
    {"fl.bytes_per_round", "B"},       {"trace.overhead_ms", "ms"},
};

/// Pool width each workload runs at. Serving also runs the session's
/// hotcall worker (a spinning thread) and serve_open a generator thread, so
/// pool threads plus those stay within the four CPUs the benchmark is sized
/// for; on this virtual-machine class more threads only add scheduling noise.
int pool_width(const std::string& workload) {
  return workload == "serve_open" || workload == "attack_pgd" ? 1 : 2;
}

/// Idle-priority spinner threads a workload keeps running: the serving
/// workloads block and wake threads per request or per batch, and a halted
/// virtual CPU can take milliseconds to wake, which swamped their latency; a
/// CPU with a runnable idle-priority thread wakes its sleepers at once. The
/// spinners yield to every normal thread, so they take no CPU time the
/// program wants.
int keep_awake_threads(const std::string& workload) {
  return workload == "serve_open" || workload == "serve_offline" ? 2 : 0;
}

struct args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string commit = "unknown";
  std::string out = ".perfbench_out";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <serve_open|serve_offline|attack_pgd|"
               "fl_round> --seed <n> --seconds <s> --trace <0|1> [--commit <id>] [--out <dir>]\n",
               why.c_str());
  std::exit(2);
}

args parse(int argc, char** argv) {
  args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v);
      else if (k == "--commit") a.commit = v;
      else if (k == "--out") a.out = v;
      else usage("unknown option " + k);
    } catch (const std::logic_error&) {
      usage("bad value for " + k + ": " + v);
    }
  }
  if (a.workload != "serve_open" && a.workload != "serve_offline" &&
      a.workload != "attack_pgd" && a.workload != "fl_round")
    usage("unknown workload '" + a.workload + "'");
  if (!(a.seconds > 0.0 && a.seconds <= 600.0)) usage("--seconds must be in (0, 600]");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  return a;
}

workload_result run(const std::string& workload, const perfbench::run_options& o) {
  if (workload == "serve_open") return perfbench::run_serve_open(o);
  if (workload == "serve_offline") return perfbench::run_serve_offline(o);
  if (workload == "attack_pgd") return perfbench::run_attack_pgd(o);
  return perfbench::run_fl_round(o);
}

const char* isa_tier() {
#if defined(__AVX512F__)
  return "avx512";
#elif defined(__AVX2__) && defined(__FMA__)
  return "avx2+fma";
#elif defined(__AVX2__)
  return "avx2";
#elif defined(__SSE2__)
  return "sse2";
#else
  return "scalar";
#endif
}

// The result line is written by hand: it must be one line and carry every
// digit of each value, while bench::json writes indented records at six
// significant digits. The run record goes through bench::json.
std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string result_line(bool correct, const workload_result& r, const std::vector<metric>& ms) {
  std::string out = std::string{"{\"correct\": "} + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i != 0) out += ", ";
    out += json_string(ms[i].name) + ": {\"value\": " + json_number(ms[i].value) +
           ", \"unit\": " + json_string(ms[i].unit) + "}";
  }
  return out + "}}";
}

/// Metrics as a record object: {"name": {"value": v, "unit": u}, ...}.
pelta::bench::json metrics_record(const std::vector<metric>& ms) {
  pelta::bench::json out = pelta::bench::json::object();
  for (const metric& m : ms) {
    pelta::bench::json entry = pelta::bench::json::object();
    if (std::isfinite(m.value)) entry.field("value", m.value);
    else entry.field("value", "non-finite");
    out.field(m.name, entry.field("unit", m.unit));
  }
  return out;
}

/// Peak resident set of this process image (VmHWM). getrusage's ru_maxrss
/// is not used: on Linux it keeps the high-water mark of the process image
/// that exec'd this one (the launching interpreter).
double peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// Open-loop latency percentiles are taken per one-second window, each
// holding at least this many requests.
constexpr std::int64_t k_window_ns = 1'000'000'000;
constexpr std::size_t k_window_min_ops = 100;
// Each op is scaled by the reference readings within this distance of it.
constexpr std::int64_t k_reference_half_window_ns = 3'000'000'000;

/// Factor from wall-clock time at `at` to time at the reference speed.
double to_reference(const workload_result& r, std::int64_t at) {
  return perfbench::k_reference_nominal_ms /
         perfbench::reference_at(r.refs.at_ns, r.refs.ms, at, k_reference_half_window_ns);
}

/// Times at the reference speed: ms[i] * to_reference(at_ns[i]).
std::vector<double> scaled(const workload_result& r, const std::vector<double>& ms,
                           const std::vector<std::int64_t>& at_ns) {
  std::vector<double> out(ms.size());
  for (std::size_t i = 0; i < ms.size(); ++i) out[i] = ms[i] * to_reference(r, at_ns[i]);
  return out;
}

/// Whether a workload's reference readings are taken on every CPU at once
/// (refclock.h). The host's speed differs between CPUs, so readings are taken
/// where the work runs: the closed-loop workloads read on the driving thread,
/// which runs all of attack_pgd and shares each fl_round round with one pool
/// worker; the serve workloads run on the server's threads (driving thread,
/// pool, session hotcall worker, generator) and read on every CPU.
bool reads_every_cpu(const std::string& workload) {
  return workload == "serve_open" || workload == "serve_offline";
}

/// Runs the workload (set-ups, window, teardown) with its idle-priority
/// spinners, which quiet_reading pauses, and its reference readers.
workload_result run_with_spinners(const std::string& workload, perfbench::run_options o) {
  perfbench::keep_awake awake{keep_awake_threads(workload)};
  std::optional<perfbench::reference_readers> readers;
  if (reads_every_cpu(workload)) readers.emplace();
  o.awake = &awake;
  o.readers = readers ? &*readers : nullptr;
  workload_result r = run(workload, o);
  if (r.op_ms.empty() || r.refs.ms.empty()) throw std::runtime_error("no operation completed");
  return r;
}

/// Latency percentile q of a run's ops, of `ops` (wall clock or scaled).
double latency_percentile(const workload_result& r, const std::vector<double>& ops, double q) {
  if (!r.open_loop) return perfbench::percentile(ops, q);
  return perfbench::windowed_percentile(r.op_at_ns, ops, k_window_ns, q, k_window_min_ops);
}

/// Throughput: open loop, the served rate (not a time, so never scaled);
/// closed loop, work per trimmed-mean cycle of `cycles`.
double throughput(const workload_result& r, const std::vector<double>& cycles) {
  if (r.open_loop) return r.throughput;
  return r.work_per_cycle / (perfbench::trimmed_mean(cycles) / 1e3);
}

std::vector<metric> end_to_end(const workload_result& r) {
  const double fail_frac =
      r.attempted > 0 ? static_cast<double>(r.failed) / static_cast<double>(r.attempted) : 1.0;
  const std::vector<double> ops = scaled(r, r.op_ms, r.op_at_ns);
  return {
      {"setup_s", perfbench::median(scaled(r, r.setup_s, r.setup_at_ns)), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"latency_p50_ms", latency_percentile(r, ops, 0.5), "ms"},
      {"latency_p90_ms", latency_percentile(r, ops, 0.9), "ms"},
      {"throughput", throughput(r, scaled(r, r.cycle_ms, r.cycle_at_ns)), "1/s"},
      // 1 - fail_frac: a metric that is never 0 on a healthy run.
      {"success_frac", 1.0 - fail_frac, "ratio"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  const args a = parse(argc, argv);

  // The pool reads PELTA_THREADS once, at first use: fix it before any
  // library call, so the width is the benchmark's, not the environment's.
  const int width = pool_width(a.workload);
  setenv("PELTA_THREADS", std::to_string(width).c_str(), 1);

  perfbench::run_options o;
  o.seed = a.seed;
  workload_result r;
  workload_result untraced;
  std::vector<metric> metrics;
  try {
    if (a.trace == 0) {
      o.seconds = a.seconds;
      r = run_with_spinners(a.workload, o);
      metrics = end_to_end(r);
    } else {
      o.setups = 1;
      o.seconds = a.seconds / 2;
      untraced = run_with_spinners(a.workload, o);
      o.traced = true;
      r = run_with_spinners(a.workload, o);
      r.layer.push_back(
          {"trace.overhead_ms",
           latency_percentile(r, scaled(r, r.op_ms, r.op_at_ns), 0.5) -
               latency_percentile(untraced, scaled(untraced, untraced.op_ms, untraced.op_at_ns),
                                  0.5),
           "ms"});
      for (const metric_spec& spec : k_layers) {
        double value = 0.0;
        for (const metric& x : r.layer)
          if (x.name == spec.name) value = x.value;
        metrics.push_back({spec.name, value, spec.unit});
      }
      for (const metric& x : r.layer) {
        bool known = false;
        for (const metric_spec& spec : k_layers) known = known || x.name == spec.name;
        if (!known) r.check_failed("unlisted per-layer metric " + x.name);
      }
      r.attempted += untraced.attempted;
      r.failed += untraced.failed;
      r.faults += untraced.faults;
      for (std::string& p : untraced.problems) r.problems.push_back("untraced: " + p);
    }
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", a.workload.c_str(), ex.what());
    return 1;
  }

  // Correct: every output checked right and every run-level check held.
  // Ops that only missed a latency limit count in `failed`, not here.
  const bool correct = r.faults == 0;
  for (const std::string& p : r.problems) std::fprintf(stderr, "perfbench: problem: %s\n", p.c_str());

  // Run record: what ran where, every metric, and the notes behind them.
  using pelta::bench::json;
  const std::string stem = a.out + "/" + a.workload + "-seed" + std::to_string(a.seed) +
                           "-trace" + std::to_string(a.trace);
  json rec = json::object();
  rec.field("workload", a.workload)
      .field("seed", std::to_string(a.seed))
      .field("seconds", a.seconds)
      .field("trace", a.trace)
      .field("host", json::object()
                         .field("nproc", static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)))
                         .field("hardware_concurrency",
                                static_cast<std::int64_t>(std::thread::hardware_concurrency()))
                         .field("pool_width", pelta::parallel_thread_count())
                         .field("keep_awake_threads", keep_awake_threads(a.workload))
                         .field("isa_tier", isa_tier())
                         .field("build_type", PERFBENCH_BUILD_TYPE)
                         .field("commit", a.commit))
      .field("ops", r.op_ms.size())
      .field("latency_p99_ms", latency_percentile(r, scaled(r, r.op_ms, r.op_at_ns), 0.99))
      .field("wall", json::object()
                         .field("setup_s", perfbench::median(r.setup_s))
                         .field("setup_s_min", *std::min_element(r.setup_s.begin(), r.setup_s.end()))
                         .field("setup_s_max", *std::max_element(r.setup_s.begin(), r.setup_s.end()))
                         .field("latency_p50_ms", latency_percentile(r, r.op_ms, 0.5))
                         .field("latency_p90_ms", latency_percentile(r, r.op_ms, 0.9))
                         .field("latency_p90_ms_pooled", perfbench::percentile(r.op_ms, 0.9))
                         .field("throughput", throughput(r, r.cycle_ms)))
      .field("reference", json::object()
                              .field("nominal_ms", perfbench::k_reference_nominal_ms)
                              .field("readings", r.refs.ms.size())
                              .field("min_ms", *std::min_element(r.refs.ms.begin(), r.refs.ms.end()))
                              .field("median_ms", perfbench::median(r.refs.ms))
                              .field("max_ms", *std::max_element(r.refs.ms.begin(), r.refs.ms.end())))
      .field("fail_frac", r.attempted ? static_cast<double>(r.failed) /
                                            static_cast<double>(r.attempted)
                                      : 1.0)
      .field("metrics", metrics_record(metrics))
      .field("notes", metrics_record(r.notes));
  if (a.trace == 1) rec.field("untraced_notes", metrics_record(untraced.notes));
  json problems = json::object();
  for (std::size_t i = 0; i < r.problems.size(); ++i) problems.field(std::to_string(i + 1), r.problems[i]);
  rec.field("problems", problems);
  if (std::ofstream os{stem + ".json"}; os) os << rec.str() << "\n";
  if (!r.trace_json.empty())
    if (std::ofstream os{stem + ".trace.json"}; os) os << r.trace_json;

  std::printf("%s\n", result_line(correct, r, metrics).c_str());
  return 0;
}
