// Multi-replica cluster scaling on the simulated clock: one saturating
// Poisson open-loop trace served by 1/2/4/8 replicas behind the round-robin
// router (serve/cluster.h).
//
// The GATE runs on the simulated clock, like bench_serving's primary gate:
// every replica count serves the SAME trace under the SAME cost model
// (per-batch setup + per-sample compute + the metered hotcall enclave
// charge, one enclave per replica), so the scaling curve is deterministic
// and host-independent. The trace is dense enough that even eight replicas
// stay saturated — throughput is service-bound at every point of the sweep,
// and the 8-replica fleet must clear >= PELTA_CLUSTER_MIN_SCALE x the
// single-replica simulated throughput.
//
// Two correctness gates ride along:
//   * chaos: a 4-replica run where one replica is killed mid-stream (and
//     later restarted) must serve EVERY request exactly once — zero lost,
//     zero duplicated, with the kill provably catching work in flight;
//   * bits: every logits row of every fleet size must match the
//     single-server serving path bit for bit (batch-size invariance plus
//     the shared exec::run_batches executor).
//
//   PELTA_CLUSTER_REQUESTS=256 PELTA_CLUSTER_ROUNDS=3 ./bench_cluster
//   PELTA_CLUSTER_MIN_SCALE=6      simulated scale gate at 8 replicas
//                                  (0 disables)
//
// Exit code: non-zero if the 8-replica simulated scaling is below the
// threshold, if the chaos leg loses or duplicates a request, or if any
// logits row differs bitwise from the single server. Emits
// BENCH_cluster.json. On failure: see docs/BENCHMARKS.md.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <vector>

#include "bench/common.h"
#include "models/vit.h"
#include "serve/cluster.h"
#include "serve/server.h"
#include "tensor/parallel.h"

namespace {

using namespace pelta;
using bench::seconds_since;

std::int64_t env_requests() {
  if (const char* v = std::getenv("PELTA_CLUSTER_REQUESTS")) return std::atoll(v);
  return 256;
}

int env_rounds() {
  if (const char* v = std::getenv("PELTA_CLUSTER_ROUNDS")) return std::atoi(v);
  return 3;
}

double env_min_scale() {
  if (const char* v = std::getenv("PELTA_CLUSTER_MIN_SCALE")) return std::atof(v);
  return 6.0;
}

bool bits_equal(const tensor& a, const tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(), a.data().size() * sizeof(float)) == 0;
}

struct sweep_point {
  std::int64_t replicas = 0;
  double sim_span_ns = 0.0;
  double wall_best_s = 1e300;
  double mean_batch_size = 0.0;
  double sim_p50_ms = 0.0;
  double sim_p95_ms = 0.0;
  bool bits_ok = true;
};

}  // namespace

int main() {
  const std::int64_t n = env_requests();
  const int rounds = std::max(1, env_rounds());
  const double min_scale = env_min_scale();

  std::printf("PELTA cluster scaling bench (simulated clock)\n");
  std::printf("requests=%lld rounds=%d threads=%lld min_scale=%.1f\n\n",
              static_cast<long long>(n), rounds,
              static_cast<long long>(parallel_thread_count()), min_scale);

  const models::vit_model model{bench::tiny_vit_config("cluster-vit")};
  serve::model_backend backend{model};

  // Saturating open-loop trace: 10 us mean gaps offer ~100 req/ms-sim against
  // a per-replica service rate of ~3.5 req/ms-sim, so even the 8-replica
  // fleet stays service-bound with FULL batches (the coalescing window never
  // expires first) and the scaling curve measures capacity, not the arrival
  // process or the per-batch setup tax.
  const std::vector<double> arrivals = serve::make_poisson_arrivals(n, 1e4, 404);
  std::vector<serve::classify_request> reqs;
  reqs.reserve(static_cast<std::size_t>(n));
  {
    rng gen{77};
    for (std::int64_t i = 0; i < n; ++i) {
      serve::classify_request r;
      r.id = 1000 + i;
      r.image = tensor::rand_uniform(gen, {3, 16, 16});
      r.submit_ns = arrivals[static_cast<std::size_t>(i)];
      reqs.push_back(std::move(r));
    }
  }

  serve::server_config server_config;
  server_config.policy = {16, 2e6};

  // Single-server reference: the bit-identity baseline for every fleet size.
  tee::enclave single_enclave;
  serve::server single{backend, single_enclave, server_config};
  const serve::serving_report single_report = single.run(reqs);

  // ---- replica sweep --------------------------------------------------------
  const std::vector<std::int64_t> fleet_sizes{1, 2, 4, 8};
  std::vector<sweep_point> sweep;
  for (std::int64_t replicas : fleet_sizes) {
    serve::cluster_config config;
    config.replicas = replicas;
    config.policy = serve::router_policy::round_robin;
    config.server = server_config;
    serve::cluster fleet{backend, config};

    sweep_point point;
    point.replicas = replicas;
    serve::cluster_report report;
    for (int round = 0; round < rounds; ++round) {
      const auto t0 = std::chrono::steady_clock::now();
      report = fleet.run(reqs);
      point.wall_best_s = std::min(point.wall_best_s, seconds_since(t0));
    }
    point.sim_span_ns = report.simulated_span_ns();
    std::int64_t executed_batches = 0;
    for (const serve::replica_report& rep : report.replicas)
      executed_batches += static_cast<std::int64_t>(rep.batches.size());
    point.mean_batch_size =
        static_cast<double>(n) / static_cast<double>(std::max<std::int64_t>(1, executed_batches));
    std::vector<double> latencies_ms;
    latencies_ms.reserve(report.results.size());
    for (std::size_t i = 0; i < report.results.size(); ++i) {
      const serve::classify_result& res = report.results[i];
      latencies_ms.push_back((res.finish_ns - res.submit_ns) / 1e6);
      if (!bits_equal(res.logits, single_report.results[i].logits)) point.bits_ok = false;
    }
    point.sim_p50_ms = bench::percentile(latencies_ms, 50.0);
    point.sim_p95_ms = bench::percentile(latencies_ms, 95.0);
    sweep.push_back(point);
  }

  // ---- chaos leg ------------------------------------------------------------
  // Kill one of four replicas mid-stream, restart it near the stream's end;
  // drain-and-requeue must hand every in-flight request to a surviving
  // replica.
  serve::cluster_config chaos_config;
  chaos_config.replicas = 4;
  chaos_config.policy = serve::router_policy::round_robin;
  chaos_config.server = server_config;
  const double kill_ns = arrivals[static_cast<std::size_t>(n / 2)];
  chaos_config.chaos.push_back({kill_ns, 1, /*kill=*/true});
  chaos_config.chaos.push_back({kill_ns + 1e7, 1, /*kill=*/false});
  serve::cluster chaos_fleet{backend, chaos_config};
  const serve::cluster_report chaos_report = chaos_fleet.run(reqs);

  std::int64_t chaos_lost = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i)
    if (chaos_report.results[i].request_id != reqs[i].id) ++chaos_lost;
  std::int64_t chaos_duplicated = 0;
  {
    std::map<std::int64_t, int> seen;
    for (const serve::replica_report& rep : chaos_report.replicas)
      for (const serve::batch_record& b : rep.batches)
        for (std::int64_t id : b.request_ids) ++seen[id];
    for (const serve::classify_request& r : reqs) {
      const auto it = seen.find(r.id);
      if (it == seen.end())
        ++chaos_lost;
      else if (it->second != 1)
        ++chaos_duplicated;
    }
  }
  bool chaos_bits_ok = true;
  for (std::size_t i = 0; i < reqs.size(); ++i)
    if (!bits_equal(chaos_report.results[i].logits, single_report.results[i].logits))
      chaos_bits_ok = false;

  // ---- report ---------------------------------------------------------------
  const double base_sim_rps =
      static_cast<double>(n) / (sweep.front().sim_span_ns / 1e9);
  double gated_scale = 0.0;
  bool bits_ok = true;
  for (const sweep_point& point : sweep) {
    const double sim_rps = static_cast<double>(n) / (point.sim_span_ns / 1e9);
    const double scale = sim_rps / base_sim_rps;
    if (point.replicas == 8) gated_scale = scale;
    bits_ok = bits_ok && point.bits_ok;
    std::printf("replicas=%-2lld %9.0f req/s sim  %9.0f req/s wall  %5.2fx sim scale  "
                "mean batch %5.2f  [sim p50/p95 %.3f/%.3f ms]%s\n",
                static_cast<long long>(point.replicas), sim_rps,
                static_cast<double>(n) / point.wall_best_s, scale, point.mean_batch_size,
                point.sim_p50_ms, point.sim_p95_ms,
                point.bits_ok ? "" : "  BITS DIVERGED");
  }
  std::printf("\nchaos (4 replicas, kill 1 mid-stream + restart): requeued=%lld lost=%lld "
              "duplicated=%lld bits=%s\n",
              static_cast<long long>(chaos_report.plan.requeued),
              static_cast<long long>(chaos_lost), static_cast<long long>(chaos_duplicated),
              chaos_bits_ok ? "ok" : "DIVERGED");

  // ---- machine-readable trajectory record -----------------------------------
  {
    bench::json fleet_json = bench::json::array();
    for (const sweep_point& point : sweep) {
      const double sim_rps = static_cast<double>(n) / (point.sim_span_ns / 1e9);
      fleet_json.push(bench::json::object()
                          .field("replicas", point.replicas)
                          .field("sim_rps", sim_rps)
                          .field("wall_rps", static_cast<double>(n) / point.wall_best_s)
                          .field("sim_scale_vs_1", sim_rps / base_sim_rps)
                          .field("mean_batch_size", point.mean_batch_size)
                          .field("sim_latency_p50_ms", point.sim_p50_ms)
                          .field("sim_latency_p95_ms", point.sim_p95_ms)
                          .field("bits_match_single_server", point.bits_ok));
    }
    bench::json::object()
        .field("bench", "cluster")
        .field("threads", parallel_thread_count())
        .field("requests", n)
        .field("mean_gap_ns", 1e4)
        .field("max_batch", server_config.policy.max_batch)
        .field("max_delay_ns", server_config.policy.max_delay_ns)
        .field("batch_setup_ns", server_config.cost.batch_setup_ns)
        .field("compute_ns_per_sample", server_config.cost.compute_ns_per_sample)
        .field("router", "round_robin")
        .field("fleet", fleet_json)
        .field("scale_threshold", min_scale)
        .field("gated_sim_scale_8_replicas", gated_scale)
        .field("chaos_requeued", chaos_report.plan.requeued)
        .field("chaos_lost", chaos_lost)
        .field("chaos_duplicated", chaos_duplicated)
        .field("chaos_bits_match_single_server", chaos_bits_ok)
        .field("bits_match_single_server", bits_ok)
        .write_file("BENCH_cluster.json");
  }

  // ---- gates ----------------------------------------------------------------
  bool ok = bits_ok && chaos_bits_ok;
  if (min_scale > 0 && gated_scale < min_scale) {
    std::printf("FAIL: 8-replica simulated throughput at %.2fx the single replica, below "
                "the %.1fx gate\n",
                gated_scale, min_scale);
    ok = false;
  }
  if (chaos_lost != 0 || chaos_duplicated != 0) {
    std::printf("FAIL: chaos leg lost %lld and duplicated %lld request(s)\n",
                static_cast<long long>(chaos_lost), static_cast<long long>(chaos_duplicated));
    ok = false;
  }
  if (chaos_report.plan.requeued == 0) {
    std::printf("FAIL: the chaos kill caught no request in flight — the leg proves nothing\n");
    ok = false;
  }
  if (!bits_ok || !chaos_bits_ok)
    std::printf("FAIL: cluster logits diverged bitwise from the single-server path\n");
  if (!ok)
    std::printf("see docs/BENCHMARKS.md for this bench's gate, knobs and expected output\n");
  std::printf("%s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
