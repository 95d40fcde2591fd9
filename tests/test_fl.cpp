// Federated-learning substrate: sharding, FedAvg, rounds, the compromised
// client of Fig. 1, and network accounting.
#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "fl/federation.h"
#include "models/trainer.h"
#include "models/vit.h"
#include "tee/sealing.h"
#include "tensor/ops.h"

namespace pelta::fl {
namespace {

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
    c.name = "fl-vit";
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

TEST(Network, RecordsMessagesBytesLatency) {
  network net{2.0, 1000.0};
  const double ns = net.record(500);
  EXPECT_NEAR(ns, 1000.0 + 1000.0, 1e-9);
  net.record(100);
  EXPECT_EQ(net.stats().messages, 2);
  EXPECT_EQ(net.stats().bytes, 600);
  net.reset();
  EXPECT_EQ(net.stats().messages, 0);
}

TEST(Client, ReceiveGlobalInstallsParameters) {
  const data::dataset ds = small_dataset();
  auto m1 = tiny_vit_factory()();
  auto m2 = tiny_vit_factory()();
  rng g{1};
  m1->params().get("head.w").value = tensor::randn(g, {16, 4});
  const byte_buffer payload = m1->params().save_values();

  fl_client client{0, std::move(m2), {0, 1, 2, 3}, ds};
  client.receive_global(payload);
  const tensor& w = client.local_model().params().get("head.w").value;
  EXPECT_FLOAT_EQ(w[0], m1->params().get("head.w").value[0]);
}

TEST(Client, LocalUpdateTrainsOnShard) {
  const data::dataset ds = small_dataset();
  fl_client client{0, tiny_vit_factory()(), {0, 1, 2, 3, 30, 31, 60, 61, 90, 91}, ds};
  const byte_buffer before = client.local_model().params().save_values();

  local_train_config cfg;
  cfg.epochs = 2;
  const model_update u = client.local_update(cfg);
  EXPECT_EQ(u.client_id, 0);
  EXPECT_EQ(u.sample_count, 10);
  EXPECT_NE(u.parameters, before);  // parameters moved
}

TEST(Client, EmptyShardRejected) {
  const data::dataset ds = small_dataset();
  EXPECT_THROW((fl_client{0, tiny_vit_factory()(), {}, ds}), error);
}

TEST(Server, FedAvgExactWeightedMean) {
  auto global = tiny_vit_factory()();
  nn::param_store& gp = global->params();
  const std::size_t n_params = gp.size();
  fl_server server{std::move(global)};

  // Two synthetic updates: all-ones (10 samples) and all-fives (30 samples);
  // FedAvg must land at 0.25*1 + 0.75*5 = 4.
  auto a = tiny_vit_factory()();
  auto b = tiny_vit_factory()();
  for (std::size_t k = 0; k < n_params; ++k) {
    a->params().at(k).value.fill_(1.0f);
    b->params().at(k).value.fill_(5.0f);
  }
  model_update ua{0, 10, a->params().save_values()};
  model_update ub{1, 30, b->params().save_values()};
  server.aggregate({ua, ub}, aggregation_rule::fedavg);

  for (std::size_t k = 0; k < n_params; ++k)
    for (float v : server.global_model().params().at(k).value.data())
      ASSERT_NEAR(v, 4.0f, 1e-5f);
  EXPECT_EQ(server.round(), 1);
}

TEST(Server, RejectsEmptyAndMalformedUpdates) {
  fl_server server{tiny_vit_factory()()};
  EXPECT_THROW(server.aggregate({}, aggregation_rule::fedavg), error);
  model_update bad{0, 4, byte_buffer{1, 2, 3}};
  EXPECT_THROW(server.aggregate({bad}, aggregation_rule::fedavg), error);
  model_update zero{0, 0, server.broadcast()};
  EXPECT_THROW(server.aggregate({zero}, aggregation_rule::fedavg), error);
}

// Update bytes are attacker-controlled: a rejected update set must leave the
// global model and the round exactly as they were, under every rule.
TEST(Server, RejectedAggregateLeavesTheGlobalModelUntouched) {
  fl_server server{tiny_vit_factory()()};
  const byte_buffer before = server.broadcast();

  auto moved = tiny_vit_factory()();
  const std::size_t n_params = moved->params().size();
  for (std::size_t k = 0; k < n_params; ++k) moved->params().at(k).value.fill_(2.0f);
  const model_update good{0, 10, moved->params().save_values()};

  model_update truncated = good;
  truncated.client_id = 1;
  truncated.parameters.resize(truncated.parameters.size() / 2);

  auto other = std::make_unique<models::vit_model>([] {
    models::vit_config c;
    c.image_size = 16;
    c.patch_size = 4;
    c.dim = 8;  // every dim-shaped tensor differs from the global model's
    c.heads = 2;
    c.blocks = 1;
    c.mlp_hidden = 32;
    c.classes = 4;
    return c;
  }());
  const model_update mismatched{1, 10, other->params().save_values()};

  model_update zero_samples = good;
  zero_samples.sample_count = 0;

  model_update negative_staleness = good;
  negative_staleness.staleness = -1;

  const std::pair<const char*, std::vector<model_update>> rejected[] = {
      {"good + truncated", {good, truncated}},
      {"mismatched structure", {good, mismatched}},
      {"zero sample count", {good, zero_samples}},
      {"negative staleness", {good, negative_staleness}},
  };
  for (const aggregation_rule rule :
       {aggregation_rule::fedavg, aggregation_rule::coordinate_median,
        aggregation_rule::trimmed_mean, aggregation_rule::norm_clipped_mean})
    for (const auto& [label, updates] : rejected) {
      EXPECT_THROW(server.aggregate(updates, rule), error)
          << label << " under " << aggregation_rule_name(rule);
      EXPECT_TRUE(server.broadcast() == before)
          << label << " under " << aggregation_rule_name(rule) << " moved the global model";
      EXPECT_EQ(server.round(), 0) << label;
    }

  // The same server still aggregates a well-formed set afterwards.
  server.aggregate({good}, aggregation_rule::fedavg);
  EXPECT_EQ(server.round(), 1);
  EXPECT_TRUE(server.broadcast() == good.parameters);
}

TEST(Federation, ShardsArePartition) {
  const data::dataset ds = small_dataset();
  federation_config cfg;
  cfg.clients = 4;
  cfg.compromised = 1;
  federation fed{cfg, tiny_vit_factory(), ds};
  EXPECT_EQ(fed.client_count(), 4);
  std::int64_t total = 0;
  for (std::int64_t c = 0; c < 4; ++c) total += fed.client(c).shard_size();
  EXPECT_EQ(total, ds.train_size());
  EXPECT_EQ(fed.compromised_clients().size(), 1u);
}

TEST(Federation, RoundsImproveGlobalModel) {
  const data::dataset ds = small_dataset();
  federation_config cfg;
  cfg.clients = 3;
  cfg.compromised = 0;
  cfg.local.epochs = 2;
  cfg.local.batch_size = 16;
  cfg.local.lr = 4e-3f;
  federation fed{cfg, tiny_vit_factory(), ds};

  const float before = fed.global_test_accuracy();
  fed.run_rounds(4);
  const float after = fed.global_test_accuracy();
  EXPECT_GT(after, before + 0.2f) << "before=" << before << " after=" << after;
  EXPECT_GT(after, 0.7f);
}

TEST(Federation, TrafficAccountsBothLegs) {
  const data::dataset ds = small_dataset();
  federation_config cfg;
  cfg.clients = 2;
  cfg.compromised = 0;
  cfg.local.epochs = 1;
  federation fed{cfg, tiny_vit_factory(), ds};
  fed.run_round();
  // broadcast + upload per client
  EXPECT_EQ(fed.traffic().messages, 4);
  const std::int64_t payload =
      static_cast<std::int64_t>(fed.server().broadcast().size());
  EXPECT_EQ(fed.traffic().bytes, 4 * payload);
}

TEST(Federation, CompromisedClientCraftsAdversarialExample) {
  const data::dataset ds = small_dataset();
  federation_config cfg;
  cfg.clients = 2;
  cfg.compromised = 1;
  cfg.local.epochs = 2;
  cfg.local.lr = 4e-3f;
  federation fed{cfg, tiny_vit_factory(), ds};
  fed.run_rounds(4);

  // The attacker probes its local copy after the final broadcast.
  const byte_buffer global = fed.server().broadcast();
  compromised_client* attacker = fed.compromised_clients()[0];
  attacker->receive_global(global);

  // Pick a sample the local model classifies correctly.
  std::int64_t idx = -1;
  for (std::int64_t i = 0; i < ds.test_size(); ++i)
    if (models::predict_one(attacker->local_model(), ds.test_image(i)) == ds.test_label(i)) {
      idx = i;
      break;
    }
  ASSERT_GE(idx, 0);

  const attacks::suite_params p = attacks::table2_cifar_params();
  const attacks::attack_result clear = attacker->craft_adversarial(
      ds.test_image(idx), ds.test_label(idx), /*shielded=*/false, attacks::attack_kind::pgd, p,
      101);
  EXPECT_LE(attacks::linf_distance(clear.adversarial, ds.test_image(idx)), p.eps + 1e-5f);

  const attacks::attack_result shielded = attacker->craft_adversarial(
      ds.test_image(idx), ds.test_label(idx), /*shielded=*/true, attacks::attack_kind::pgd, p,
      101);
  // PELTA on the local copy: the probe sees only the masked view; the
  // crafted sample is far less likely to fool the model. At minimum the
  // clear attack must not be weaker than the shielded one on this sample.
  EXPECT_GE(static_cast<int>(clear.misclassified), static_cast<int>(shielded.misclassified));
}

TEST(Federation, AdversarialExampleTransfersToVictim) {
  // Fig. 1: the sample crafted on the attacker's copy is replayed against a
  // victim running the same broadcast model — same parameters, same result.
  const data::dataset ds = small_dataset();
  federation_config cfg;
  cfg.clients = 3;
  cfg.compromised = 1;
  cfg.local.epochs = 2;
  cfg.local.lr = 4e-3f;
  federation fed{cfg, tiny_vit_factory(), ds};
  fed.run_rounds(4);

  const byte_buffer global = fed.server().broadcast();
  compromised_client* attacker = fed.compromised_clients()[0];
  attacker->receive_global(global);
  fl_client& victim = fed.client(0);
  victim.receive_global(global);

  const attacks::suite_params p = attacks::table2_cifar_params();
  std::int64_t transferred = 0, crafted = 0;
  for (std::int64_t i = 0; i < 10; ++i) {
    if (models::predict_one(attacker->local_model(), ds.test_image(i)) != ds.test_label(i))
      continue;
    const attacks::attack_result r = attacker->craft_adversarial(
        ds.test_image(i), ds.test_label(i), false, attacks::attack_kind::pgd, p, 200 + i);
    if (!r.misclassified) continue;
    ++crafted;
    if (models::predict_one(victim.local_model(), r.adversarial) != ds.test_label(i))
      ++transferred;
  }
  ASSERT_GT(crafted, 0);
  EXPECT_EQ(transferred, crafted);  // identical weights -> perfect replay
}

// ---- golden: the runtime's bits, pinned -----------------------------------
// Hashes and hex-float clocks recorded from the runtime; any change to the
// aggregation rules, the staleness weight, the fleet profiles, the network
// meter or the sharding streams moves at least one of them.

std::uint64_t hash_bytes(const byte_buffer& bytes, std::uint64_t h = 0xcbf29ce484222325ull) {
  return tee::fnv1a(bytes.data(), bytes.size(), h);
}

std::uint64_t hash_double(double v, std::uint64_t h) {
  std::uint8_t raw[sizeof(double)];
  std::memcpy(raw, &v, sizeof(double));
  return tee::fnv1a(raw, sizeof(raw), h);
}

/// Broadcast bytes followed by every traffic counter.
std::uint64_t federation_hash(federation& fed) {
  std::uint64_t h = hash_bytes(fed.server().broadcast());
  const network_stats t = fed.traffic();
  h = hash_double(static_cast<double>(t.messages), h);
  h = hash_double(static_cast<double>(t.bytes), h);
  return hash_double(t.simulated_ns, h);
}

/// The straggler example's fleet: six clients, K = 3, max staleness 6, one
/// 6x straggler, 20% per-episode dropout.
federation_config straggler_fleet() {
  federation_config cfg;
  cfg.clients = 6;
  cfg.compromised = 0;
  cfg.local.epochs = 1;
  cfg.async.buffer_size = 3;
  cfg.async.max_staleness = 6;
  cfg.async.heterogeneity.stragglers = 1;
  cfg.async.heterogeneity.straggler_slowdown = 6.0;
  cfg.async.heterogeneity.dropout_rate = 0.2;
  return cfg;
}

TEST(FederationGolden, SyncRoundsUnderEachRule) {
  const data::dataset ds = small_dataset();
  struct golden_case {
    aggregation_rule rule;
    std::int64_t clients;
    std::uint64_t hash;
  };
  const golden_case cases[] = {
      {aggregation_rule::fedavg, 5, 0xd115dff4199a9dd7ull},
      {aggregation_rule::coordinate_median, 5, 0xb222f12dd6cbf942ull},
      {aggregation_rule::trimmed_mean, 5, 0xc65e62aaaf1cb9c5ull},
      {aggregation_rule::norm_clipped_mean, 5, 0xfa6a3b91f1e2f4f6ull},
      {aggregation_rule::trimmed_mean, 2, 0xc48e59e41e32f1c1ull},  // n = 2: nothing trimmed
  };
  for (const golden_case& c : cases) {
    federation_config cfg;
    cfg.clients = c.clients;
    cfg.local.epochs = 1;
    cfg.aggregation = {c.rule};
    federation fed{cfg, tiny_vit_factory(), ds};
    fed.run_rounds(2);
    EXPECT_EQ(federation_hash(fed), c.hash)
        << aggregation_rule_name(c.rule) << " over " << c.clients << " clients: 0x" << std::hex
        << federation_hash(fed);
  }
}

TEST(FederationGolden, AsyncStragglerFleet) {
  const data::dataset ds = small_dataset();
  federation fed{straggler_fleet(), tiny_vit_factory(), ds};
  const async_report r = fed.run_async(6);
  EXPECT_EQ(r.aggregations, 6);
  EXPECT_EQ(r.updates_applied, 18);
  EXPECT_EQ(r.updates_dropped, 5);
  EXPECT_EQ(r.updates_stale, 0);
  EXPECT_EQ(r.trainings, 18);
  EXPECT_EQ(r.simulated_ns, 0x1.39becp+25);
  EXPECT_EQ(r.mean_staleness, 0x1.1c71c71c71c72p+0);
  EXPECT_EQ(r.max_staleness_seen, 4);
  const network_stats t = fed.traffic();
  EXPECT_EQ(t.messages, 46);
  EXPECT_EQ(t.bytes, 645840);
  EXPECT_EQ(t.simulated_ns, 0x1.72a96p+26);
  EXPECT_EQ(hash_bytes(fed.server().broadcast()), 0xc86a2ccf2dd5b9b3ull)
      << std::hexfloat << r.simulated_ns << " " << r.mean_staleness << " " << t.simulated_ns
      << " 0x" << std::hex << hash_bytes(fed.server().broadcast());
}

TEST(FederationGolden, SyncRoundClock) {
  const data::dataset ds = small_dataset();
  federation_config cfg = straggler_fleet();
  cfg.participation = 0.67f;  // four of six: the straggler sits out rounds 0 and 1
  const federation fed{cfg, tiny_vit_factory(), ds};
  const double expected[] = {0x1.f5fep+22, 0x1.f5fep+22, 0x1.aeac8p+24};
  for (std::int64_t r = 0; r < 3; ++r)
    EXPECT_EQ(fed.sync_round_ns(r), expected[r]) << "round " << r << ": " << std::hexfloat
                                                 << fed.sync_round_ns(r);
}

TEST(FederationGolden, ShardsPerStrategy) {
  const data::dataset ds = small_dataset();
  constexpr std::uint64_t seed = 23;
  const std::pair<shard_strategy, std::uint64_t> cases[] = {
      {shard_strategy::iid, 0xaa233d016cc77000ull},
      {shard_strategy::by_class, 0xb149edf09a364fa4ull},
      {shard_strategy::dirichlet, 0x2145a7480e5199faull},
  };
  for (const auto& [strategy, expected] : cases) {
    sharding_config sc;
    sc.strategy = strategy;
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const std::vector<std::int64_t>& shard : make_shards(ds, 4, sc, seed)) {
      h = hash_double(static_cast<double>(shard.size()), h);
      for (const std::int64_t i : shard) h = hash_double(static_cast<double>(i), h);
    }
    EXPECT_EQ(h, expected) << shard_strategy_name(strategy) << ": 0x" << std::hex << h;
  }
}

}  // namespace
}  // namespace pelta::fl
