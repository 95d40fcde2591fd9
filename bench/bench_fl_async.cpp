// Sync vs async federation: time-to-accuracy under stragglers.
//
// Both runtimes train the same model family over the same fleet: one
// straggler client at PELTA_STRAGGLER_SLOWDOWN (default 4x) compute, the
// rest nominal. The synchronous barrier pays the straggler every round —
// a round lasts max(download + compute + upload) over its participants —
// while the buffered-async runtime (fl/async.h) aggregates whenever
// PELTA_BUFFER_K updates arrive, so the fast clients keep contributing
// during the straggler's episode. Both clocks are the *simulated* event
// clock of the shared cost model, so the comparison is hardware-independent.
//
//   PELTA_CLIENTS=6 PELTA_STRAGGLER_SLOWDOWN=4 PELTA_BUFFER_K=3 ./bench_fl_async
//   PELTA_TARGET_PCT=80 PELTA_ROUNDS=24 ./bench_fl_async
//
// Exits 0 when async reaches the target accuracy in less simulated time
// than sync (the §VI intermittent-availability claim), 1 otherwise.
#include <cstdio>
#include <vector>

#include "bench/common.h"
#include "fl/federation.h"
#include "models/vit.h"

namespace {

pelta::fl::model_factory tiny_vit_factory() {
  return [] {
    pelta::models::vit_config c;
    c.name = "async-bench-vit";
    c.image_size = 16;
    c.patch_size = 4;
    c.dim = 16;
    c.heads = 2;
    c.blocks = 1;
    c.mlp_hidden = 32;
    c.classes = 4;
    c.seed = 31;
    return std::make_unique<pelta::models::vit_model>(c);
  };
}

}  // namespace

int main() {
  using namespace pelta;
  bench::scale s;
  const std::int64_t clients = bench::env_int("PELTA_CLIENTS", 6);
  const std::int64_t buffer_k = bench::env_int("PELTA_BUFFER_K", 3);
  const double slowdown = static_cast<double>(bench::env_int("PELTA_STRAGGLER_SLOWDOWN", 4));
  const double target = static_cast<double>(bench::env_int("PELTA_TARGET_PCT", 70)) / 100.0;
  const std::int64_t max_rounds = bench::env_int("PELTA_ROUNDS", 16);
  const std::int64_t max_aggregations = bench::env_int("PELTA_AGGREGATIONS", 32);
  s.print("bench_fl_async");

  data::dataset_config dc = data::cifar10_like();
  dc.classes = 4;
  dc.train_per_class = 30;
  dc.test_per_class = 10;
  const data::dataset ds{dc};

  fl::federation_config cfg;
  cfg.clients = clients;
  cfg.compromised = 0;
  cfg.local.epochs = 2;
  cfg.local.batch_size = 16;
  cfg.local.lr = 4e-3f;
  cfg.async.buffer_size = buffer_k;
  cfg.async.max_staleness = 8;
  cfg.async.heterogeneity.stragglers = 1;
  cfg.async.heterogeneity.straggler_slowdown = slowdown;

  std::printf("fleet: %lld clients, 1 straggler at %.1fx compute, buffer K=%lld, "
              "staleness weighting 1/sqrt(1+s)\n",
              static_cast<long long>(clients), slowdown,
              static_cast<long long>(buffer_k));
  std::printf("target: %.0f%% global test accuracy (4-class task, %lld train samples)\n\n",
              100.0 * target, static_cast<long long>(ds.train_size()));

  // ---- synchronous barrier ---------------------------------------------------
  fl::federation sync_fed{cfg, tiny_vit_factory(), ds};
  double sync_clock_ns = 0.0, sync_time_to_target = -1.0;
  double sync_accuracy = 0.0;
  std::int64_t sync_rounds = 0;
  for (std::int64_t r = 0; r < max_rounds; ++r) {
    // The barrier: the round ends when its slowest participant finishes.
    const double round_ns = sync_fed.sync_round_ns(r);
    sync_fed.run_round();
    sync_clock_ns += round_ns;
    ++sync_rounds;
    sync_accuracy = sync_fed.global_test_accuracy();
    if (sync_accuracy >= target) {
      sync_time_to_target = sync_clock_ns;
      break;
    }
  }

  // ---- buffered async --------------------------------------------------------
  fl::federation async_fed{cfg, tiny_vit_factory(), ds};
  double async_time_to_target = -1.0;
  float async_accuracy = 0.0f;
  std::int64_t async_flushes = 0;
  const fl::async_report report = async_fed.run_async(
      max_aggregations, [&](std::int64_t k, double ns) {
        if (async_time_to_target >= 0.0) return;
        async_accuracy = async_fed.global_test_accuracy();
        async_flushes = k + 1;
        if (async_accuracy >= target) async_time_to_target = ns;
      });

  // ---- report ----------------------------------------------------------------
  const auto ms = [](double ns) { return ns / 1e6; };
  std::printf("%-10s %10s %16s %18s\n", "runtime", "steps", "accuracy", "sim ms to target");
  std::printf("%-10s %10lld %15.1f%% %18s\n", "sync",
              static_cast<long long>(sync_rounds), 100.0 * sync_accuracy,
              sync_time_to_target >= 0.0
                  ? std::to_string(static_cast<long long>(ms(sync_time_to_target))).c_str()
                  : "never");
  std::printf("%-10s %10lld %15.1f%% %18s\n\n", "async",
              static_cast<long long>(async_flushes), 100.0 * async_accuracy,
              async_time_to_target >= 0.0
                  ? std::to_string(static_cast<long long>(ms(async_time_to_target))).c_str()
                  : "never");
  std::printf("async: %lld updates applied (mean staleness %.2f, max %lld), "
              "%lld discarded stale, %lld dropouts\n",
              static_cast<long long>(report.updates_applied), report.mean_staleness,
              static_cast<long long>(report.max_staleness_seen),
              static_cast<long long>(report.updates_stale),
              static_cast<long long>(report.updates_dropped));

  const bool async_wins = async_time_to_target >= 0.0 &&
                          (sync_time_to_target < 0.0 ||
                           async_time_to_target < sync_time_to_target);
  if (async_wins && sync_time_to_target >= 0.0)
    std::printf("\nasync reached %.0f%% in %.1fx less simulated time: the barrier pays "
                "the straggler\nevery round; the buffer keeps aggregating the fast "
                "clients' updates instead.\n",
                100.0 * target, sync_time_to_target / async_time_to_target);
  else if (!async_wins)
    std::printf("\nWARNING: async did not beat the synchronous barrier here — check the "
                "straggler\nslowdown (needs >= 4x for a decisive gap) and the target.\n");
  return async_wins ? 0 : 1;
}
