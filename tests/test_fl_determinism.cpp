// Determinism suite: the pooled schedule must be bit-identical to the
// forced-serial schedule — the same guarantee as running the whole process
// under PELTA_THREADS=1 vs PELTA_THREADS=8.
//
// Covered: a 6-client 2-round federation (global parameters, traffic
// accounting), a buffered-async run over a heterogeneous fleet (straggler +
// dropout; schedule, staleness stamps and aggregates), and a PGD
// evaluate_attack (robust-accuracy counters). The
// static initializer pins PELTA_THREADS=8 (without overriding an explicit
// environment setting, e.g. the CI PELTA_THREADS=2 leg) so the pooled runs
// really cross threads even on single-core hosts.
#include <gtest/gtest.h>

#include <cstdlib>

#include "attacks/runner.h"
#include "fl/federation.h"
#include "models/trainer.h"
#include "models/vit.h"
#include "tensor/parallel.h"

namespace pelta::fl {
namespace {

const bool k_threads_pinned = [] {
  setenv("PELTA_THREADS", "8", /*overwrite=*/0);
  return true;
}();

data::dataset small_dataset() {
  data::dataset_config c = data::cifar10_like();
  c.classes = 4;
  c.train_per_class = 30;
  c.test_per_class = 10;
  return data::dataset{c};
}

model_factory tiny_vit_factory() {
  return [] {
    models::vit_config c;
    c.name = "det-vit";
    c.image_size = 16;
    c.patch_size = 4;
    c.dim = 16;
    c.heads = 2;
    c.blocks = 1;
    c.mlp_hidden = 32;
    c.classes = 4;
    c.seed = 31;  // identical initial params on server and clients
    return std::make_unique<models::vit_model>(c);
  };
}

struct federation_outcome {
  byte_buffer global;
  network_stats traffic;
  float accuracy = 0.0f;
};

federation_outcome run_federation(bool force_serial) {
  const data::dataset ds = small_dataset();
  federation_config cfg;
  cfg.clients = 6;
  cfg.compromised = 1;
  cfg.local.epochs = 1;
  cfg.local.batch_size = 8;
  federation fed{cfg, tiny_vit_factory(), ds};
  {
    std::unique_ptr<serial_guard> guard;
    if (force_serial) guard = std::make_unique<serial_guard>();
    fed.run_rounds(2);
  }
  federation_outcome out;
  out.global = fed.server().broadcast();
  out.traffic = fed.traffic();
  out.accuracy = fed.global_test_accuracy();
  return out;
}

TEST(Determinism, FederationRoundsBitIdenticalAcrossThreadCounts) {
  ASSERT_TRUE(k_threads_pinned);
  const federation_outcome serial = run_federation(/*force_serial=*/true);
  const federation_outcome pooled = run_federation(/*force_serial=*/false);

  // Global parameters byte-for-byte: every float of every tensor matches.
  ASSERT_EQ(serial.global.size(), pooled.global.size());
  EXPECT_TRUE(serial.global == pooled.global) << "global parameters diverged";

  // Network accounting replays in participant order post-join, so even the
  // double-accumulated simulated latency is bit-identical.
  EXPECT_EQ(serial.traffic.messages, pooled.traffic.messages);
  EXPECT_EQ(serial.traffic.bytes, pooled.traffic.bytes);
  EXPECT_EQ(serial.traffic.simulated_ns, pooled.traffic.simulated_ns);

  EXPECT_EQ(serial.accuracy, pooled.accuracy);
}

struct async_outcome {
  byte_buffer global;
  network_stats traffic;
  async_report report;
  float accuracy = 0.0f;
};

async_outcome run_async_federation(bool force_serial) {
  const data::dataset ds = small_dataset();
  federation_config cfg;
  cfg.clients = 6;
  cfg.compromised = 1;
  cfg.local.epochs = 1;
  cfg.local.batch_size = 8;
  cfg.async.buffer_size = 2;
  cfg.async.max_staleness = 4;
  cfg.async.heterogeneity.stragglers = 2;
  cfg.async.heterogeneity.straggler_slowdown = 4.0;
  cfg.async.heterogeneity.dropout_rate = 0.2;
  federation fed{cfg, tiny_vit_factory(), ds};
  async_outcome out;
  {
    std::unique_ptr<serial_guard> guard;
    if (force_serial) guard = std::make_unique<serial_guard>();
    out.report = fed.run_async(4);
  }
  out.global = fed.server().broadcast();
  out.traffic = fed.traffic();
  out.accuracy = fed.global_test_accuracy();
  return out;
}

TEST(Determinism, AsyncFederationBitIdenticalAcrossThreadCounts) {
  ASSERT_TRUE(k_threads_pinned);
  const async_outcome serial = run_async_federation(/*force_serial=*/true);
  const async_outcome pooled = run_async_federation(/*force_serial=*/false);

  // The async schedule is planned on the simulated clock (never wall-clock),
  // so buffer order, staleness stamps and the aggregated parameters are all
  // bit-identical regardless of how the pool interleaves the training.
  ASSERT_EQ(serial.global.size(), pooled.global.size());
  EXPECT_TRUE(serial.global == pooled.global) << "async global parameters diverged";

  EXPECT_EQ(serial.traffic.messages, pooled.traffic.messages);
  EXPECT_EQ(serial.traffic.bytes, pooled.traffic.bytes);
  EXPECT_EQ(serial.traffic.simulated_ns, pooled.traffic.simulated_ns);

  EXPECT_EQ(serial.report.aggregations, pooled.report.aggregations);
  EXPECT_EQ(serial.report.updates_applied, pooled.report.updates_applied);
  EXPECT_EQ(serial.report.updates_dropped, pooled.report.updates_dropped);
  EXPECT_EQ(serial.report.updates_stale, pooled.report.updates_stale);
  EXPECT_EQ(serial.report.trainings, pooled.report.trainings);
  EXPECT_EQ(serial.report.simulated_ns, pooled.report.simulated_ns);
  EXPECT_EQ(serial.report.mean_staleness, pooled.report.mean_staleness);

  EXPECT_EQ(serial.accuracy, pooled.accuracy);
}

TEST(Determinism, PgdEvaluateAttackBitIdenticalAcrossThreadCounts) {
  const data::dataset ds = small_dataset();
  auto m = tiny_vit_factory()();
  models::train_config tc;
  tc.epochs = 2;
  tc.batch_size = 16;
  tc.lr = 4e-3f;
  tc.seed = 5;
  {
    serial_guard guard;  // one reference model, trained deterministically
    models::train_model(*m, ds, tc);
  }

  attacks::suite_params params = attacks::table2_cifar_params();
  params.pgd_steps = 8;
  const auto factory = attacks::clear_oracle_factory(*m);

  attacks::robust_eval serial_eval;
  {
    serial_guard guard;
    serial_eval = attacks::evaluate_attack(*m, ds, attacks::attack_kind::pgd, params, factory,
                                           /*max_samples=*/12, /*seed=*/99);
  }
  const attacks::robust_eval pooled_eval = attacks::evaluate_attack(
      *m, ds, attacks::attack_kind::pgd, params, factory, /*max_samples=*/12, /*seed=*/99);

  EXPECT_EQ(serial_eval.samples, pooled_eval.samples);
  EXPECT_EQ(serial_eval.attack_successes, pooled_eval.attack_successes);
  EXPECT_EQ(serial_eval.robust_accuracy, pooled_eval.robust_accuracy);
  EXPECT_EQ(serial_eval.mean_queries, pooled_eval.mean_queries);
}

}  // namespace
}  // namespace pelta::fl
