// Poisoning/backdoor clients and Byzantine-robust aggregation (the §I
// attack stories PELTA is motivated by, plus the server-side defenses a
// production FL substrate ships).
#include <gtest/gtest.h>

#include "fl/poisoning.h"
#include "fl/server.h"
#include "tensor/serialize.h"
#include "models/trainer.h"
#include "models/zoo.h"
#include "tensor/kernels.h"  // detail::fmadd — the accumulation-policy reference
#include "tensor/ops.h"

namespace pelta::fl {
namespace {

// ---- trigger ----------------------------------------------------------------

TEST(Trigger, StampsOnlyTheBottomRightCorner) {
  rng g{1};
  const tensor x = tensor::rand_uniform(g, {3, 8, 8}, 0.0f, 0.5f);
  trigger_pattern t;
  t.size = 2;
  t.value = 1.0f;
  const tensor y = apply_trigger(x, t);
  for (std::int64_t c = 0; c < 3; ++c)
    for (std::int64_t i = 0; i < 8; ++i)
      for (std::int64_t j = 0; j < 8; ++j) {
        if (i >= 6 && j >= 6)
          EXPECT_FLOAT_EQ(y.at(c, i, j), 1.0f);
        else
          EXPECT_FLOAT_EQ(y.at(c, i, j), x.at(c, i, j));
      }
}

TEST(Trigger, OversizedThrowsAndInputUntouched) {
  rng g{2};
  const tensor x = tensor::rand_uniform(g, {1, 4, 4});
  const tensor copy = x;
  trigger_pattern t;
  t.size = 5;
  EXPECT_THROW(apply_trigger(x, t), error);
  for (std::int64_t i = 0; i < x.numel(); ++i) EXPECT_FLOAT_EQ(x[i], copy[i]);
}

// ---- aggregation rules against hand-computed values ----------------------------

byte_buffer encode1(std::vector<float> v) {
  byte_buffer out;
  serialize_tensor(tensor{shape_t{static_cast<std::int64_t>(v.size())}, std::move(v)}, out);
  return out;
}

std::vector<float> decode1(const byte_buffer& buf) {
  std::size_t offset = 0;
  const tensor t = deserialize_tensor(buf, offset);
  return {t.data().begin(), t.data().end()};
}

model_update make_update(std::int64_t id, std::int64_t samples, std::vector<float> v) {
  model_update u;
  u.client_id = id;
  u.sample_count = samples;
  u.parameters = encode1(std::move(v));
  return u;
}

TEST(Aggregation, FedavgIsSampleWeighted) {
  const byte_buffer ref = encode1({0.0f, 0.0f});
  const std::vector<model_update> updates = {make_update(0, 1, {1.0f, 10.0f}),
                                             make_update(1, 3, {5.0f, 2.0f})};
  const auto out = decode1(aggregate_states(ref, updates, aggregation_rule::fedavg));
  EXPECT_NEAR(out[0], 0.25f * 1.0f + 0.75f * 5.0f, 1e-5f);
  EXPECT_NEAR(out[1], 0.25f * 10.0f + 0.75f * 2.0f, 1e-5f);
}

TEST(Aggregation, CoordinateMedianOddAndEven) {
  const byte_buffer ref = encode1({0.0f});
  const aggregation_rule median = aggregation_rule::coordinate_median;

  const std::vector<model_update> odd = {make_update(0, 1, {1.0f}), make_update(1, 1, {100.0f}),
                                         make_update(2, 1, {3.0f})};
  EXPECT_FLOAT_EQ(decode1(aggregate_states(ref, odd, median))[0], 3.0f);

  const std::vector<model_update> even = {make_update(0, 1, {1.0f}), make_update(1, 1, {2.0f}),
                                          make_update(2, 1, {8.0f}), make_update(3, 1, {100.0f})};
  EXPECT_FLOAT_EQ(decode1(aggregate_states(ref, even, median))[0], 5.0f);
}

TEST(Aggregation, MedianIgnoresSampleCountBoosting) {
  // a malicious client claiming a huge sample count moves FedAvg but not
  // the median.
  const byte_buffer ref = encode1({0.0f});
  const std::vector<model_update> updates = {make_update(0, 1, {1.0f}),
                                             make_update(1, 1, {1.2f}),
                                             make_update(2, 1000, {50.0f})};
  const float med =
      decode1(aggregate_states(ref, updates, aggregation_rule::coordinate_median))[0];
  const float avg = decode1(aggregate_states(ref, updates, aggregation_rule::fedavg))[0];
  EXPECT_FLOAT_EQ(med, 1.2f);
  EXPECT_GT(avg, 45.0f);
}

TEST(Aggregation, TrimmedMeanDropsBothTails) {
  const byte_buffer ref = encode1({0.0f});
  const std::vector<model_update> updates = {
      make_update(0, 1, {-100.0f}), make_update(1, 1, {1.0f}), make_update(2, 1, {2.0f}),
      make_update(3, 1, {3.0f}), make_update(4, 1, {100.0f})};
  // floor(5 * 0.2) = 1 per side
  EXPECT_NEAR(decode1(aggregate_states(ref, updates, aggregation_rule::trimmed_mean))[0], 2.0f,
              1e-5f);
}

TEST(Aggregation, TrimmedMeanFloorsSmallPositiveFractions) {
  // The fraction rounds to zero at small n, yet one value per side is still
  // trimmed — dropping the floor entirely would silently disable robustness.
  const byte_buffer ref = encode1({0.0f});
  const std::vector<model_update> updates = {make_update(0, 1, {-100.0f}),
                                             make_update(1, 1, {1.0f}),
                                             make_update(2, 1, {3.0f}),
                                             make_update(3, 1, {100.0f})};
  // floor(4 * 0.2) = 0 -> floored to k = 1
  EXPECT_NEAR(decode1(aggregate_states(ref, updates, aggregation_rule::trimmed_mean))[0], 2.0f,
              1e-5f);
}

TEST(Aggregation, TrimmedMeanSurvivesCatastrophicCancellation) {
  // Regression for the float accumulator the R1 lint rule flagged: summing
  // the sorted survivors {-2^25, 1, 2^25} left-to-right in float loses the 1
  // entirely (-2^25 + 1 rounds back to -2^25), so the old code returned 0.
  // The double-widened accumulator keeps it: the mean is exactly 1/3. The
  // outer +-2^30 are the one value per side the rule trims at n = 5.
  const byte_buffer ref = encode1({0.0f});
  const std::vector<model_update> updates = {
      make_update(0, 1, {-1073741824.0f}), make_update(1, 1, {-33554432.0f}),
      make_update(2, 1, {1.0f}), make_update(3, 1, {33554432.0f}),
      make_update(4, 1, {1073741824.0f})};
  EXPECT_NEAR(decode1(aggregate_states(ref, updates, aggregation_rule::trimmed_mean))[0],
              1.0f / 3.0f, 1e-6f);
}

TEST(Aggregation, NormClipCapsTheOutlierDelta) {
  const byte_buffer ref = encode1({0.0f, 0.0f});
  // honest: delta norm 1 (the median); attacker: delta norm 100.
  const std::vector<model_update> updates = {make_update(0, 1, {1.0f, 0.0f}),
                                             make_update(1, 1, {1.0f, 0.0f}),
                                             make_update(2, 1, {0.0f, 100.0f})};
  const auto out = decode1(aggregate_states(ref, updates, aggregation_rule::norm_clipped_mean));
  EXPECT_NEAR(out[0], 2.0f / 3.0f, 1e-5f);  // honest deltas kept
  EXPECT_NEAR(out[1], 1.0f / 3.0f, 1e-5f);  // attacker clipped 100 -> 1, then averaged
}

TEST(Aggregation, NormClipSelfTunesToMedianNorm) {
  const byte_buffer ref = encode1({0.0f});
  const std::vector<model_update> updates = {make_update(0, 1, {2.0f}),
                                             make_update(1, 1, {2.0f}),
                                             make_update(2, 1, {200.0f})};
  // median delta norm = 2
  const auto out = decode1(aggregate_states(ref, updates, aggregation_rule::norm_clipped_mean));
  EXPECT_NEAR(out[0], (2.0f + 2.0f + 2.0f) / 3.0f, 1e-4f);
}

TEST(Aggregation, NormClipFollowsTheFmaddPolicy) {
  // The delta accumulation must round exactly like ops::detail::fmadd — the
  // repo-wide float-accumulation policy (R1) — so the aggregate is
  // bit-identical across build flags (-ffp-contract on FMA targets would
  // otherwise fuse a raw `out += w * delta` into a differently-rounded FMA).
  const std::vector<float> ref_v = {0.1f, -0.3f, 2.5f};
  const std::vector<std::vector<float>> clients = {{1.0f / 3.0f, 0.7f, -0.2f},
                                                   {0.2f, -1.1f, 3.9f}};
  const byte_buffer ref = encode1(ref_v);
  const std::vector<model_update> updates = {make_update(0, 1, clients[0]),
                                             make_update(1, 1, clients[1])};
  // At n = 2 the median norm is the larger one: neither delta is scaled.
  const auto out = decode1(aggregate_states(ref, updates, aggregation_rule::norm_clipped_mean));

  std::vector<float> expect = ref_v;  // same order as the implementation
  for (const auto& s : clients)
    for (std::size_t j = 0; j < expect.size(); ++j)
      expect[j] = ops::detail::fmadd(0.5f, s[j] - ref_v[j], expect[j]);
  ASSERT_EQ(out.size(), expect.size());
  for (std::size_t j = 0; j < expect.size(); ++j) EXPECT_EQ(out[j], expect[j]);
}

TEST(Aggregation, StructureMismatchThrows) {
  const byte_buffer ref = encode1({0.0f, 0.0f});
  const std::vector<model_update> updates = {make_update(0, 1, {1.0f})};
  EXPECT_THROW(aggregate_states(ref, updates, aggregation_rule::fedavg), error);
}

TEST(Aggregation, RuleNamesAreDistinct) {
  EXPECT_STRNE(aggregation_rule_name(aggregation_rule::fedavg),
               aggregation_rule_name(aggregation_rule::coordinate_median));
  EXPECT_STRNE(aggregation_rule_name(aggregation_rule::trimmed_mean),
               aggregation_rule_name(aggregation_rule::norm_clipped_mean));
}

// ---- end-to-end federation with a malicious member ------------------------------

models::vit_config tiny_vit_config() {
  models::vit_config vc;
  vc.name = "tiny-vit";
  vc.image_size = 16;
  vc.patch_size = 4;
  vc.dim = 16;
  vc.heads = 2;
  vc.blocks = 2;
  vc.mlp_hidden = 32;
  vc.classes = 4;
  return vc;
}

struct fed_fixture {
  data::dataset ds;

  fed_fixture()
      : ds{[] {
          data::dataset_config c = data::cifar10_like();
          c.classes = 4;
          c.train_per_class = 60;
          c.test_per_class = 20;
          return c;
        }()} {}

  std::unique_ptr<models::model> fresh_model() const {
    return std::make_unique<models::vit_model>(tiny_vit_config());
  }

  std::vector<std::int64_t> shard_of(std::int64_t client, std::int64_t clients) const {
    std::vector<std::int64_t> out;
    for (std::int64_t i = client; i < ds.train_size(); i += clients) out.push_back(i);
    return out;
  }

  static const fed_fixture& get() {
    static fed_fixture f;
    return f;
  }
};

void run_round(fl_server& server, const std::vector<fl_client*>& clients,
               const local_train_config& lc, aggregation_rule rule) {
  const byte_buffer g = server.broadcast();
  std::vector<model_update> updates;
  for (fl_client* c : clients) {
    c->receive_global(g);
    updates.push_back(c->local_update(lc));
  }
  server.aggregate(updates, rule);
}

struct backdoor_run {
  float success_rate;
  float clean_accuracy;
};

backdoor_run run_backdoor_federation(const fed_fixture& f, aggregation_rule rule, float boost) {
  const std::int64_t n_clients = 4;
  backdoor_config bd;
  bd.trigger.size = 4;  // one full ViT patch
  bd.target_class = 0;
  bd.poison_fraction = 0.25f;
  bd.boost = boost;

  fl_server server{f.fresh_model()};
  std::vector<std::unique_ptr<fl_client>> owned;
  for (std::int64_t i = 0; i + 1 < n_clients; ++i)
    owned.push_back(std::make_unique<fl_client>(i, f.fresh_model(),
                                                f.shard_of(i, n_clients), f.ds));
  owned.push_back(std::make_unique<backdoor_client>(
      n_clients - 1, f.fresh_model(), f.shard_of(n_clients - 1, n_clients), f.ds, bd));

  std::vector<fl_client*> clients;
  for (auto& c : owned) clients.push_back(c.get());

  local_train_config lc;
  lc.epochs = 2;
  lc.batch_size = 16;
  lc.lr = 3e-3f;
  for (std::int64_t r = 0; r < 4; ++r) run_round(server, clients, lc, rule);

  return {backdoor_success_rate(server.global_model(), f.ds, bd, 60),
          models::accuracy(server.global_model(), f.ds.test_images(), f.ds.test_labels())};
}

TEST(Backdoor, SucceedsUnderFedavgWithBoost) {
  const auto& f = fed_fixture::get();
  const backdoor_run r = run_backdoor_federation(f, aggregation_rule::fedavg, 4.0f);
  EXPECT_GT(r.success_rate, 0.6f) << "trigger did not embed";
  EXPECT_GT(r.clean_accuracy, 0.7f) << "backdoor must stay stealthy on the main task";
}

TEST(Backdoor, CoordinateMedianMitigates) {
  const auto& f = fed_fixture::get();
  const backdoor_run fedavg = run_backdoor_federation(f, aggregation_rule::fedavg, 4.0f);
  const backdoor_run median = run_backdoor_federation(f, aggregation_rule::coordinate_median, 4.0f);
  EXPECT_LT(median.success_rate, fedavg.success_rate - 0.3f);
  EXPECT_GT(median.clean_accuracy, 0.7f);
}

TEST(Backdoor, NormClipBluntsModelReplacement) {
  const auto& f = fed_fixture::get();
  const backdoor_run fedavg = run_backdoor_federation(f, aggregation_rule::fedavg, 8.0f);
  const backdoor_run clipped =
      run_backdoor_federation(f, aggregation_rule::norm_clipped_mean, 8.0f);
  EXPECT_LT(clipped.success_rate, fedavg.success_rate + 1e-3f);
  EXPECT_GT(clipped.clean_accuracy, 0.7f);
}

struct evasion_run {
  float attack_rate;  ///< replay success over ALL probe attempts
  float clean_accuracy;
  std::int64_t successful_crafts;
  std::int64_t attempts;
};

evasion_run run_evasion_federation(const fed_fixture& f, bool shielded) {
  const std::int64_t n_clients = 4;
  evasion_poison_config ec;
  ec.params = attacks::params_for_dataset("cifar10_like");
  ec.shielded = shielded;
  ec.crafts_per_round = 6;

  fl_server server{f.fresh_model()};
  std::vector<std::unique_ptr<fl_client>> owned;
  for (std::int64_t i = 0; i + 1 < n_clients; ++i)
    owned.push_back(std::make_unique<fl_client>(i, f.fresh_model(),
                                                f.shard_of(i, n_clients), f.ds));
  auto poisoner = std::make_unique<evasion_poison_client>(
      n_clients - 1, f.fresh_model(), f.shard_of(n_clients - 1, n_clients), f.ds, ec);
  evasion_poison_client* poisoner_ptr = poisoner.get();
  owned.push_back(std::move(poisoner));

  std::vector<fl_client*> clients;
  for (auto& c : owned) clients.push_back(c.get());

  local_train_config lc;
  lc.epochs = 2;
  lc.batch_size = 16;
  lc.lr = 3e-3f;
  for (std::int64_t r = 0; r < 4; ++r) run_round(server, clients, lc, aggregation_rule::fedavg);

  return {replay_attack_rate(server.global_model(), poisoner_ptr->replay_set(),
                             poisoner_ptr->craft_attempts()),
          models::accuracy(server.global_model(), f.ds.test_images(), f.ds.test_labels()),
          static_cast<std::int64_t>(poisoner_ptr->replay_set().size()),
          poisoner_ptr->craft_attempts()};
}

TEST(EvasionPoisoning, PeltaDefangsTheReplaySet) {
  const auto& f = fed_fixture::get();
  const evasion_run open = run_evasion_federation(f, /*shielded=*/false);
  const evasion_run shielded = run_evasion_federation(f, /*shielded=*/true);
  // Unshielded: the probe finds real adversarial examples, and reinforcing
  // them through the updates keeps them misclassified by the global model.
  // Shielded: most probes fail outright — there is nothing to reinforce.
  EXPECT_GT(open.successful_crafts, shielded.successful_crafts);
  EXPECT_GT(open.attack_rate, shielded.attack_rate + 0.2f);
  EXPECT_GT(open.clean_accuracy, 0.7f);
  EXPECT_GT(shielded.clean_accuracy, 0.7f);
}

TEST(EvasionPoisoning, AttemptCountingAndReplayGrowth) {
  const auto& f = fed_fixture::get();
  evasion_poison_config ec;
  ec.params = attacks::params_for_dataset("cifar10_like");
  ec.crafts_per_round = 3;
  evasion_poison_client client{0, f.fresh_model(), f.shard_of(0, 4), f.ds, ec};
  local_train_config lc;
  lc.epochs = 1;
  lc.batch_size = 16;
  (void)client.local_update(lc);
  EXPECT_EQ(client.craft_attempts(), 3);
  (void)client.local_update(lc);
  EXPECT_EQ(client.craft_attempts(), 6);
  EXPECT_LE(client.replay_set().size(), 6u);
  for (const auto& s : client.replay_set()) EXPECT_NE(s.adopted_label, s.true_label);
}

}  // namespace
}  // namespace pelta::fl
