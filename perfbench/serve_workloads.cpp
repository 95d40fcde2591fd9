// serve_open and serve_offline: shielded ViT serving through serve::server.
//
// Both serve ViT-B/16-sim (seeded, untrained: serving cost does not depend
// on the weights' values) on cifar10_like images under the default policy
// (max_batch 32, 2 ms window) with the fp32 model_backend.
//   serve_open    open loop: Poisson arrivals at a fixed rate from a
//                 generator thread; the main thread serves with drain_wait().
//                 Drains hold about one request, so per-batch fixed costs
//                 dominate — the latency a device user sees.
//   serve_offline every request of a job is pending at t = 0 and served by
//                 one server::run; batches fill to 32, so forward GEMMs and
//                 pipeline overlap dominate.
// Both serve their window in segments, each on a fresh server: between
// segments no server exists, so no library thread runs while the reference
// clock is read (refclock.h).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "data/dataset.h"
#include "models/zoo.h"
#include "probes.h"
#include "serve/server.h"
#include "shield/masked_view.h"

namespace perfbench {

namespace {

using namespace pelta;

constexpr std::int64_t k_image_pool = 256;   // distinct request images
constexpr std::int64_t k_warmup_requests = 64;
// Open loop: about half of batch-1 capacity at serve_open's pool width of
// 1. The closed-loop batch-1 service time measured in each warm-up, about
// 0.6 ms on the 4-CPU x86-64 virtual machine the benchmark was sized on,
// puts the utilisation near 0.5; both are in the run record
// (batch1_service_ms, offered_utilisation).
constexpr double k_open_rate_per_s = 800.0;
// The open-loop window is served in segments this long (of schedule time),
// each by a fresh server after a reference reading (refclock.h), with a
// short batch-1 warm-up before it.
constexpr std::int64_t k_open_segment_ns = 2'000'000'000;
constexpr std::int64_t k_segment_warmup_requests = 16;
// A request answered later than this (from when it was due) counts as failed.
// A growing backlog crosses it within a second. It sits well above the
// 20-45 ms stalls a busy virtual-machine host imposes now and then, which
// the windowed percentiles already absorb.
constexpr double k_open_limit_ms = 100.0;
// Offline job size: 32 full batches.
constexpr std::int64_t k_offline_job = 1024;
// Timed offline jobs per segment. Each segment starts with a fresh server, a
// reference reading and an untimed warm-up of k_offline_warmup requests.
constexpr std::int64_t k_offline_jobs_per_segment = 4;
constexpr std::int64_t k_offline_warmup = 64;

// Span id of the serve call in flight; backend spans run on pool threads and
// name it as their parent.
std::atomic<std::int64_t> g_call_span{-1};

/// The benchmark's shielded_backend. Untraced it delegates to the library's
/// model_backend; traced it makes the same public calls model_backend::
/// run_batch makes (model::forward, then shield::shield_batch) under spans,
/// with stores routed through a timing port that forwards to the server's.
/// Both modes stamp when each request's batch started and finished.
class bench_backend final : public serve::shielded_backend {
public:
  bench_backend(const models::model& m, bool traced)
      : model_{&m}, plain_{m}, traced_{traced}, key_prefix_{"serve/" + m.name() + "/"} {}

  /// Size the stamp arrays for request ids in [0, n); -1 = never served.
  void reset_stamps(std::size_t n) {
    start_ns.assign(n, -1);
    done_ns.assign(n, -1);
  }

  std::int64_t num_classes() const override { return model_->num_classes(); }

  tensor run_batch(const tensor& images, const std::vector<std::int64_t>& ids,
                   tee::secure_store& sink, batch_stats* stats) override {
    const std::int64_t t0 = now_ns();
    batch_stats local;
    tensor out = traced_ ? run_traced(images, sink, &local)
                         : plain_.run_batch(images, ids, sink, &local);
    const std::int64_t t1 = now_ns();
    // The enclave stage is serialized in batch order, so these writes never
    // race; the server joins its tasks before run() returns.
    for (const std::int64_t id : ids) {
      if (id >= 0 && static_cast<std::size_t>(id) < done_ns.size()) {
        start_ns[static_cast<std::size_t>(id)] = t0;
        done_ns[static_cast<std::size_t>(id)] = t1;
      }
    }
    ++batches;
    masked_transforms += local.masked_transforms;
    shield_bytes += local.shield_bytes;
    if (stats != nullptr) *stats = local;
    return out;
  }

  std::vector<std::int64_t> start_ns;
  std::vector<std::int64_t> done_ns;
  // Since construction, warm-up included (the session's totals count the
  // same batches).
  std::int64_t batches = 0;
  std::int64_t masked_transforms = 0;
  std::int64_t shield_bytes = 0;

private:
  tensor run_traced(const tensor& images, tee::secure_store& sink, batch_stats* stats) {
    const scoped_span batch{"serve.backend", g_call_span.load(std::memory_order_acquire)};
    models::forward_pass fp = [&] {
      const scoped_span s{"models.forward"};
      return model_->forward(images, ad::norm_mode::eval);
    }();
    timing_store port{sink};
    const shield::masked_view view = [&] {
      const scoped_span s{"shield.walk"};
      return shield::shield_batch(fp.graph, model_->shield_frontier_tags(), port, key_prefix_);
    }();
    PELTA_CHECK_MSG(view.value_accessible(fp.logits),
                    "shield frontier reached the logits; nothing left to serve");
    stats->masked_transforms = static_cast<std::int64_t>(view.report().masked_transforms.size());
    stats->shield_bytes = view.report().total_bytes();
    return fp.graph.value(fp.logits);
  }

  const models::model* model_;
  serve::model_backend plain_;
  bool traced_;
  std::string key_prefix_;
};

struct serve_fixture {
  std::unique_ptr<models::model> model;
  std::vector<tensor> images;  // [C,H,W]
  std::vector<tensor> refs;    // batch-1 predict_logits rows, [classes]
  tee::enclave enclave;
  std::unique_ptr<bench_backend> backend;
  std::unique_ptr<serve::server> srv;
  serve::enclave_session::totals retired;  // of the sessions of destroyed servers
  std::vector<double> batch1_ms;  // closed-loop batch-1 service times (serve_open warm-up)
};

/// A server over the fixture's backend and enclave, default policy
/// (max_batch 32, 2 ms window).
void open_server(serve_fixture& f) {
  f.srv = std::make_unique<serve::server>(*f.backend, f.enclave, serve::server_config{});
}

std::unique_ptr<serve_fixture> make_serve_fixture(const run_options& o) {
  auto f = std::make_unique<serve_fixture>();
  data::dataset_config dc = data::cifar10_like();
  dc.seed = derive_seed(o.seed, 1);
  dc.train_per_class = 1;
  dc.test_per_class = (k_image_pool + dc.classes - 1) / dc.classes;
  const data::dataset ds{dc};

  const models::task_spec task = task_of(dc, derive_seed(o.seed, 2));
  f->model = models::make_vit_b16_sim(task);

  for (std::int64_t i = 0; i < k_image_pool; ++i) {
    tensor img = ds.test_image(i);
    const tensor logits = models::predict_logits(
        *f->model, img.reshape({1, img.size(0), img.size(1), img.size(2)}));
    f->refs.push_back(logits.reshape({logits.numel()}));
    f->images.push_back(std::move(img));
  }

  f->backend = std::make_unique<bench_backend>(*f->model, o.traced);
  open_server(*f);
  return f;
}

/// Destroys the fixture's server, which stops and joins its session's
/// hotcall worker, and keeps the session's totals.
void retire_server(serve_fixture& f) {
  if (!f.srv) return;
  const serve::enclave_session::totals& t = f.srv->session().accumulated();
  f.retired.batches += t.batches;
  f.retired.hotcalls += t.hotcalls;
  f.retired.stores += t.stores;
  f.retired.bytes_in += t.bytes_in;
  f.retired.enclave_ns += t.enclave_ns;
  f.srv.reset();
}

/// A quiet point between segments of the window: with no server alive, no
/// library thread runs while the reference is read (refclock.h). Tracing is
/// off until the next segment starts.
void segment_break(const run_options& o, serve_fixture& f, workload_result& r) {
  set_active_log(nullptr);
  retire_server(f);
  quiet_reading(o, r, k_segment_reading_runs);
  open_server(f);
}

bool logits_match(const tensor& got, const tensor& want) {
  return got.numel() == want.numel() &&
         std::equal(want.data().begin(), want.data().end(), got.data().begin());
}

/// Checks one served result; returns false (and records why) on a mismatch.
bool check_result(const serve_fixture& f, const serve::classify_result& res,
                  std::vector<std::uint8_t>& answered, workload_result& r) {
  const std::int64_t id = res.request_id;
  if (id < 0 || static_cast<std::size_t>(id) >= answered.size()) {
    r.check_failed("result for unknown request id " + std::to_string(id));
    return false;
  }
  if (answered[static_cast<std::size_t>(id)]++ != 0) {
    r.fail("request " + std::to_string(id) + " answered twice");
    return false;
  }
  if (!logits_match(res.logits, f.refs[static_cast<std::size_t>(id % k_image_pool)])) {
    r.fail("request " + std::to_string(id) + ": logits differ from batch-1 predict_logits");
    return false;
  }
  return true;
}

/// Per-layer metrics shared by both serve workloads, from the traced spans
/// and the sessions' enclave accounting (every server retired).
void serve_layers(const serve_fixture& f, const span_tree& t, std::int64_t requests,
                  workload_result& r) {
  const std::vector<const span*> calls = t.named("serve.call");
  const std::vector<const span*> batches = t.named("serve.backend");
  const double n_batches = std::max<double>(1.0, static_cast<double>(batches.size()));
  const double all_batches = std::max<double>(1.0, static_cast<double>(f.backend->batches));
  std::vector<double> store_ms;
  for (const span* w : t.named("shield.walk"))
    store_ms.push_back(static_cast<double>((w->t1 - w->t0) - t.self_ns(*w)) / 1e6);
  const double forward_total = sum(t.durations_ms("models.forward"));
  const double call_total = sum(t.durations_ms("serve.call"));
  const serve::enclave_session::totals& tee = f.retired;

  r.layer.push_back({"serve.call_ms", median_or_zero(t.durations_ms("serve.call")), "ms"});
  r.layer.push_back({"serve.self_ms", median_or_zero(t.self_ms("serve.call")), "ms"});
  r.layer.push_back({"serve.batches",
                     static_cast<double>(batches.size()) /
                         std::max<double>(1.0, static_cast<double>(calls.size())),
                     "count"});
  r.layer.push_back(
      {"serve.batch_size_mean", static_cast<double>(requests) / n_batches, "count"});
  r.layer.push_back({"models.forward_ms", median_or_zero(t.durations_ms("models.forward")), "ms"});
  r.layer.push_back({"models.forward_share", call_total > 0 ? forward_total / call_total : 0.0,
                     "ratio"});
  r.layer.push_back({"shield.walk_self_ms", median_or_zero(t.self_ms("shield.walk")), "ms"});
  r.layer.push_back({"shield.masked_transforms",
                     static_cast<double>(f.backend->masked_transforms) / all_batches, "count"});
  r.layer.push_back(
      {"shield.bytes", static_cast<double>(f.backend->shield_bytes) / all_batches, "B"});
  r.layer.push_back({"tee.store_ms", median_or_zero(store_ms), "ms"});
  r.layer.push_back({"tee.stores", static_cast<double>(tee.stores) / all_batches, "count"});
  r.layer.push_back({"tee.hotcalls", static_cast<double>(tee.hotcalls) / all_batches, "count"});
  r.layer.push_back({"tee.bytes_in", static_cast<double>(tee.bytes_in) / all_batches, "B"});
  r.layer.push_back({"tee.modeled_ns", tee.enclave_ns / all_batches, "ns"});

  double worst = 0.0;
  if (!t.roots_tiled("serve.call", 0.01, &worst))
    r.check_failed("serve.call spans are not tiled by their backend spans");
  r.note("self_time_tiling_worst", worst, "ratio");
}

}  // namespace

workload_result run_serve_open(const run_options& o) {
  workload_result r;
  std::unique_ptr<serve_fixture> f = timed_setups(r, o, [&] {
    auto fx = make_serve_fixture(o);
    // Warm-up: batch-1 requests one at a time, the path the open loop
    // takes. The later half also times the closed-loop batch-1 service
    // time, from which the offered load's utilisation is reported.
    fx->backend->reset_stamps(0);
    for (std::int64_t i = 0; i < k_warmup_requests; ++i) {
      const std::int64_t t0 = now_ns();
      fx->srv->queue().push({i, fx->images[static_cast<std::size_t>(i % k_image_pool)], 0.0});
      (void)fx->srv->drain_wait();
      if (i >= k_warmup_requests / 2)
        fx->batch1_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    }
    return fx;
  });

  const std::vector<std::int64_t> offsets =
      poisson_schedule(k_open_rate_per_s, o.seconds, derive_seed(o.seed, 3));
  const std::size_t n = offsets.size();
  f->backend->reset_stamps(n);
  std::vector<std::int64_t> due(n);
  std::vector<std::int64_t> sent(n, -1);
  std::vector<std::int64_t> picked(n, -1);
  std::vector<std::int64_t> done(n, -1);
  std::vector<std::uint8_t> answered(n, 0);
  std::vector<std::uint8_t> ok(n, 0);

  span_log log;
  std::int64_t window_ns = 0;  // sum of the segments' spans
  std::size_t lo = 0;
  for (std::int64_t seg = 0; lo < n; ++seg) {
    // Segment `seg` holds the requests scheduled in
    // [seg, seg + 1) * k_open_segment_ns, on a fresh server.
    const std::int64_t seg_start = seg * k_open_segment_ns;
    std::size_t hi = lo;
    while (hi < n && offsets[hi] < seg_start + k_open_segment_ns) ++hi;
    if (hi == lo) continue;
    segment_break(o, *f, r);
    for (std::int64_t i = 0; i < k_segment_warmup_requests; ++i) {
      // Ids past the schedule: the backend's stamps ignore them.
      const std::int64_t id = static_cast<std::int64_t>(n) + i;
      f->srv->queue().push({id, f->images[static_cast<std::size_t>(i % k_image_pool)], 0.0});
      (void)f->srv->drain_wait();
    }
    if (o.traced) set_active_log(&log);
    const std::int64_t t0 = now_ns() + 5'000'000;  // let the generator start first
    for (std::size_t i = lo; i < hi; ++i) due[i] = t0 + offsets[i] - seg_start;

    std::thread generator{[&, lo, hi] {
      for (std::size_t i = lo; i < hi; ++i) {
        // Spin on the clock rather than sleep: on a virtual machine a
        // sleeping CPU can wake milliseconds late. Yield while spinning, so
        // a server thread sharing this CPU (the session's hotcall worker)
        // is not starved for a scheduler tick.
        while (now_ns() < due[i]) std::this_thread::yield();
        serve::classify_request req;
        req.id = static_cast<std::int64_t>(i);
        req.image = f->images[i % k_image_pool];
        req.submit_ns = static_cast<double>(offsets[i]);
        sent[i] = now_ns();
        f->srv->queue().push(std::move(req));
      }
      f->srv->queue().close();
    }};

    std::int64_t last_done = t0;
    try {
      for (;;) {
        serve::serving_report rep;
        if (o.traced) {
          // drain_wait() is run(canonicalize(queue().wait_drain())); unrolled
          // here so the pick-up time of each request can be stamped.
          std::vector<serve::classify_request> batch = f->srv->queue().wait_drain();
          if (batch.empty()) break;  // closed and drained
          const std::int64_t pick = now_ns();
          for (const serve::classify_request& q : batch)
            if (q.id >= 0 && static_cast<std::size_t>(q.id) < n)
              picked[static_cast<std::size_t>(q.id)] = pick;
          const scoped_span call{"serve.call", -1};
          g_call_span.store(call.id(), std::memory_order_release);
          rep = f->srv->run(serve::canonicalize(std::move(batch)));
        } else {
          rep = f->srv->drain_wait();
        }
        const std::int64_t tdone = now_ns();
        if (rep.results.empty() && f->srv->queue().closed()) break;
        for (const serve::classify_result& res : rep.results) {
          if (!check_result(*f, res, answered, r)) continue;
          const auto id = static_cast<std::size_t>(res.request_id);
          done[id] = tdone;
          ok[id] = 1;
        }
        last_done = tdone;
      }
    } catch (...) {
      f->srv->queue().close();
      generator.join();
      set_active_log(nullptr);
      throw;
    }
    generator.join();
    set_active_log(nullptr);
    window_ns += last_done - t0;
    lo = hi;
  }
  retire_server(*f);
  quiet_reading(o, r, k_segment_reading_runs);

  r.attempted = static_cast<std::int64_t>(n);
  std::int64_t served = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (answered[i] == 0) {
      r.fail("request " + std::to_string(i) + " unanswered");
      continue;
    }
    if (ok[i] == 0) continue;  // already counted by check_result
    ++served;
    const double ms = static_cast<double>(done[i] - due[i]) / 1e6;
    r.op_ms.push_back(ms);
    r.op_at_ns.push_back(due[i]);
    if (ms > k_open_limit_ms)
      r.miss("request " + std::to_string(i) + " took " + std::to_string(ms) + " ms");
  }
  // Flat at the offered rate unless a backlog grows.
  r.open_loop = true;
  r.throughput = static_cast<double>(served) / (static_cast<double>(window_ns) / 1e9);

  const std::vector<double> lateness = latencies_from_due_ms(due, sent);
  const double batch1_ms = median(f->batch1_ms);
  r.note("offered_rate_per_s", k_open_rate_per_s, "1/s");
  r.note("batch1_service_ms", batch1_ms, "ms");
  r.note("offered_utilisation", k_open_rate_per_s * batch1_ms / 1e3, "ratio");
  r.note("latency_limit_ms", k_open_limit_ms, "ms");
  const double late_p99 = windowed_percentile(due, lateness, 1'000'000'000, 0.99, 100);
  r.note("generator_lateness_p50_ms", percentile(lateness, 0.5), "ms");
  r.note("generator_lateness_p99_ms", late_p99, "ms");
  r.note("generator_lateness_p99_ms_pooled", percentile(lateness, 0.99), "ms");
  // The generator must keep its schedule, or the offered load is not the
  // stated rate. Only a host that stalls this process's threads makes it
  // fall behind, so this warns rather than faults the program.
  if (late_p99 > 1.0) r.warn("generator p99 lateness above 1 ms: the offered rate was not kept");

  if (o.traced) {
    const span_tree t{log.take()};
    r.layer.push_back({"serve.queue_wait_ms", median_or_zero(latencies_from_due_ms(due, picked)),
                       "ms"});
    serve_layers(*f, t, served, r);
    r.trace_json = chrome_trace_json(t.spans());
  }
  return r;
}

workload_result run_serve_offline(const run_options& o) {
  workload_result r;
  std::vector<serve::classify_request> job(static_cast<std::size_t>(k_offline_job));
  std::unique_ptr<serve_fixture> f = timed_setups(r, o, [&] {
    auto fx = make_serve_fixture(o);
    // Every request of a job is pending at t = 0.
    for (std::int64_t i = 0; i < k_offline_job; ++i)
      job[static_cast<std::size_t>(i)] = {i, fx->images[static_cast<std::size_t>(i % k_image_pool)],
                                          0.0};
    fx->backend->reset_stamps(job.size());
    (void)fx->srv->run(job);  // warm-up: one whole job
    return fx;
  });

  span_log log;
  const std::int64_t window_end = now_ns() + static_cast<std::int64_t>(o.seconds * 1e9);
  std::vector<double> wait_ms;
  std::int64_t served = 0;
  do {
    // A segment: a fresh server, an untimed warm-up, then timed jobs.
    segment_break(o, *f, r);
    (void)f->srv->run({job.begin(), job.begin() + k_offline_warmup});
    if (o.traced) set_active_log(&log);
    for (std::int64_t k = 0; k < k_offline_jobs_per_segment && now_ns() < window_end; ++k) {
      f->backend->reset_stamps(job.size());
      std::vector<std::uint8_t> answered(job.size(), 0);
      const std::int64_t t0 = now_ns();
      serve::serving_report rep;
      {
        const scoped_span call{"serve.call", -1};
        g_call_span.store(call.id(), std::memory_order_release);
        rep = f->srv->run(job);
      }
      r.cycle_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
      r.cycle_at_ns.push_back(t0);
      r.attempted += static_cast<std::int64_t>(job.size());
      for (const serve::classify_result& res : rep.results)
        if (check_result(*f, res, answered, r)) ++served;
      for (std::size_t i = 0; i < job.size(); ++i) {
        if (answered[i] == 0) {
          r.fail("request " + std::to_string(i) + " unanswered");
          continue;
        }
        // A request's result is available once its batch finished.
        r.op_ms.push_back(static_cast<double>(f->backend->done_ns[i] - t0) / 1e6);
        r.op_at_ns.push_back(t0);
        if (o.traced) wait_ms.push_back(static_cast<double>(f->backend->start_ns[i] - t0) / 1e6);
      }
    }
  } while (now_ns() < window_end);
  set_active_log(nullptr);
  retire_server(*f);
  quiet_reading(o, r, k_segment_reading_runs);
  r.work_per_cycle = static_cast<double>(k_offline_job);
  r.note("job_requests", static_cast<double>(k_offline_job), "count");

  if (o.traced) {
    const span_tree t{log.take()};
    // Offline, a request waits from the job's start until its batch starts.
    r.layer.push_back({"serve.queue_wait_ms", median_or_zero(wait_ms), "ms"});
    serve_layers(*f, t, served, r);
    r.trace_json = chrome_trace_json(t.spans());
  }
  return r;
}

}  // namespace perfbench
