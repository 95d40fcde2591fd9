// What every workload of the benchmark reports, and the entry points main.cpp
// dispatches to.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "trace.h"

namespace perfbench {

class keep_awake;
class reference_readers;

struct run_options {
  std::uint64_t seed = 1;
  double seconds = 10.0;   ///< measured window (warm-up is outside it)
  bool traced = false;     ///< record spans and per-layer metrics
  std::int64_t setups = 5; ///< set-ups per run; setup_s is their median
  keep_awake* awake = nullptr;  ///< the run's idle spinners, paused by quiet_reading
  /// The run's reference readers (refclock.h); null: read on the calling thread.
  reference_readers* readers = nullptr;
};

/// Reference readings of a run (refclock.h): when each was taken and the
/// kernel's median time in it.
struct reference_log {
  std::vector<std::int64_t> at_ns;
  std::vector<double> ms;
};

struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct workload_result {
  std::vector<double> setup_s;  ///< one per set-up, warm-up included
  std::vector<std::int64_t> setup_at_ns;  ///< when each set-up started
  std::vector<double> op_ms;    ///< per-operation latency (wall clock)
  std::vector<std::int64_t> op_at_ns;  ///< when each op started (open loop: was due)
  /// Open loop: latency percentiles are taken per one-second window, median
  /// across windows, and throughput is served / window.
  bool open_loop = false;
  double throughput = 0.0;  ///< open loop only
  /// Closed loop: throughput is work_per_cycle over the trimmed mean cycle
  /// time (a job, an attacked sample, a round).
  std::vector<double> cycle_ms;
  std::vector<std::int64_t> cycle_at_ns;
  reference_log refs;  ///< quiet_reading()s through the run
  double work_per_cycle = 0.0;
  std::int64_t attempted = 0;   ///< operations attempted
  std::int64_t failed = 0;      ///< operations that failed any check
  /// Wrong outputs and failed run-level checks; `correct` means none.
  std::int64_t faults = 0;
  std::vector<std::string> problems;  ///< first messages of failures and faults
  std::vector<metric> layer;    ///< per-layer metrics (traced runs)
  std::vector<metric> notes;    ///< extra record fields (generator lateness, hashes, ...)
  std::string trace_json;       ///< chrome trace of the traced run

  /// An operation whose output is wrong: failed, and the run is incorrect.
  void fail(std::string why) {
    ++faults;
    miss(std::move(why));
  }
  /// An operation that missed its latency limit: failed, output still right.
  void miss(std::string why) {
    ++failed;
    if (problems.size() < 16) problems.push_back(std::move(why));
  }
  /// A failed run-level check (schedule kept, spans tile, states repeat).
  void check_failed(std::string why) {
    ++faults;
    problems.push_back(std::move(why));
  }
  /// A condition of the measurement, not of the program's output (the
  /// generator fell behind its schedule): recorded and printed only.
  void warn(std::string why) { problems.push_back("warning: " + std::move(why)); }
  void note(std::string name, double value, std::string unit) {
    notes.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Takes one reference reading (refclock.h; the median of `runs` kernel
/// runs, on every CPU at once when o.readers is set) into r.refs at a quiet
/// point: a moment when no library thread runs. attack_pgd has no such
/// thread; fl_round's pool workers are parked between rounds; the serve
/// workloads read only while no server, and so no session hotcall worker,
/// exists. The run's idle spinners are paused for the reading.
void quiet_reading(const run_options& o, workload_result& r, int runs);

/// Kernel runs of a reading taken between segments of a run (before each
/// set-up; between serve segments). Closed-loop workloads also read one run
/// before every op.
inline constexpr int k_segment_reading_runs = 64;

/// Sets a workload up o.setups times (construction and warm-up), timing
/// each into r.setup_s, and keeps the last fixture for the measured window.
/// Before each set-up, with the previous fixture freed, a reference reading
/// is taken. `make` returns a std::unique_ptr.
template <class Make>
auto timed_setups(workload_result& r, const run_options& o, Make make) -> decltype(make()) {
  decltype(make()) kept;
  for (std::int64_t i = 0; i < o.setups; ++i) {
    kept.reset();
    quiet_reading(o, r, k_segment_reading_runs);
    const std::int64_t t0 = now_ns();
    kept = make();
    r.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    r.setup_at_ns.push_back(t0);
  }
  return kept;
}

workload_result run_serve_open(const run_options& o);
workload_result run_serve_offline(const run_options& o);
workload_result run_attack_pgd(const run_options& o);
workload_result run_fl_round(const run_options& o);

/// Derived seed for one component of a workload (dataset, model, schedule).
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t component) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + component * 0xbf58476d1ce4e5b9ull + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// FNV-1a over bytes — the repeatability fingerprint of model states.
inline std::uint64_t fnv1a(const std::uint8_t* p, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace perfbench
