// FL round scaling on the persistent thread pool.
//
// Trains one federation round (8 clients by default) at 1/2/4/8 threads via
// concurrency_guard — the pool itself is sized once from PELTA_THREADS,
// which this bench pins to at least 8 before first use — and reports the
// per-round wall clock, speedup over the 1-thread schedule, and a
// bit-identity check of the aggregated global parameters across widths.
// Standard output carries only the configuration and the bit-identity
// verdict, so it is byte-identical across hosts and PELTA_THREADS and can be
// diffed; the pool width and the wall-clock table go to standard error.
//
//   PELTA_CLIENTS=8 PELTA_ROUNDS=2 PELTA_TRAIN_PER_CLASS=60 ./bench_fl_scaling
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "fl/federation.h"
#include "models/zoo.h"
#include "tensor/parallel.h"

namespace {

// Pin the pool size before its first use so the 8-wide leg has real workers
// even when the environment doesn't set PELTA_THREADS. Must run before any
// parallel_for.
const bool k_threads_pinned = [] {
  setenv("PELTA_THREADS", "8", /*overwrite=*/0);
  return true;
}();

double run_rounds_ms(pelta::fl::federation& fed, std::int64_t rounds) {
  const auto start = std::chrono::steady_clock::now();
  fed.run_rounds(rounds);
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count() /
         static_cast<double>(rounds);
}

}  // namespace

int main() {
  using namespace pelta;
  bench::scale s;
  const std::int64_t clients = bench::env_int("PELTA_CLIENTS", 8);
  const std::int64_t rounds = bench::env_int("PELTA_ROUNDS", 2);
  s.print("bench_fl_scaling");
  std::fprintf(stderr, "pool: PELTA_THREADS=%d (hardware threads visible: %u)\n",
               parallel_thread_count(), std::thread::hardware_concurrency());
  std::printf("federation: %lld clients, %lld round(s) per leg, 1 local epoch\n",
              static_cast<long long>(clients), static_cast<long long>(rounds));

  const data::dataset ds = bench::make_scaled_dataset("cifar10_like", s);
  const fl::model_factory factory = [&] {
    models::task_spec task;
    task.image_size = ds.config().image_size;
    task.channels = ds.config().channels;
    task.classes = ds.config().classes;
    task.seed = s.seed;
    return models::make_model("ResNet-56", task);
  };

  const std::vector<int> widths{1, 2, 4, 8};
  std::vector<double> per_round_ms;
  std::vector<byte_buffer> globals;

  for (const int width : widths) {
    fl::federation_config cfg;
    cfg.clients = clients;
    cfg.compromised = 0;
    cfg.local.epochs = 1;
    cfg.local.batch_size = 16;
    cfg.seed = s.seed;
    fl::federation fed{cfg, factory, ds};
    concurrency_guard guard{width};
    per_round_ms.push_back(run_rounds_ms(fed, rounds));
    globals.push_back(fed.server().broadcast());
  }

  std::fprintf(stderr, "%-8s %14s %10s\n", "threads", "ms/round", "speedup");
  bool identical = true;
  for (std::size_t i = 0; i < widths.size(); ++i) {
    std::fprintf(stderr, "%-8d %14.1f %9.2fx\n", widths[i], per_round_ms[i],
                 per_round_ms[0] / per_round_ms[i]);
    identical = identical && globals[i] == globals[0];
  }
  std::fprintf(stderr,
               "(wall-clock speedup requires >= as many hardware cores as threads;\n"
               " the bit-identity verdict must hold on any machine)\n");
  std::printf("global parameters bit-identical across widths 1/2/4/8: %s\n",
              identical ? "yes" : "NO — DETERMINISM BUG");
  return identical ? 0 : 1;
}
