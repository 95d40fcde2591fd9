// Client data partitioning (fl/sharding.h): iid, by-class and Dirichlet
// strategies — coverage/disjointness invariants and skew ordering.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "fl/federation.h"
#include "models/zoo.h"

namespace pelta::fl {
namespace {

const data::dataset& shard_dataset() {
  static const data::dataset ds = [] {
    data::dataset_config c = data::cifar10_like();
    c.train_per_class = 30;
    c.test_per_class = 10;
    return data::dataset{c};
  }();
  return ds;
}

void expect_valid_partition(const std::vector<std::vector<std::int64_t>>& shards,
                            std::int64_t total) {
  std::set<std::int64_t> seen;
  for (const auto& s : shards) {
    EXPECT_FALSE(s.empty());
    for (std::int64_t i : s) {
      EXPECT_TRUE(seen.insert(i).second) << "index " << i << " assigned twice";
      EXPECT_GE(i, 0);
      EXPECT_LT(i, total);
    }
  }
  EXPECT_EQ(static_cast<std::int64_t>(seen.size()), total);
}

double mean_entropy(const data::dataset& ds,
                    const std::vector<std::vector<std::int64_t>>& shards) {
  double acc = 0.0;
  for (const auto& s : shards) acc += shard_label_entropy(ds, s);
  return acc / static_cast<double>(shards.size());
}

class ShardingStrategies : public ::testing::TestWithParam<shard_strategy> {};

TEST_P(ShardingStrategies, ProducesAValidPartition) {
  const auto& ds = shard_dataset();
  sharding_config cfg;
  cfg.strategy = GetParam();
  const auto shards = make_shards(ds, 5, cfg, 23);
  ASSERT_EQ(shards.size(), 5u);
  expect_valid_partition(shards, ds.train_size());
}

TEST_P(ShardingStrategies, IsSeedDeterministic) {
  const auto& ds = shard_dataset();
  sharding_config cfg;
  cfg.strategy = GetParam();
  const auto first = make_shards(ds, 4, cfg, 99);
  EXPECT_EQ(first, make_shards(ds, 4, cfg, 99));
  EXPECT_NE(first, make_shards(ds, 4, cfg, 100));
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, ShardingStrategies,
                         ::testing::Values(shard_strategy::iid, shard_strategy::by_class,
                                           shard_strategy::dirichlet),
                         [](const auto& info) {
                           std::string name = shard_strategy_name(info.param);
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

TEST(Sharding, IidShardsAreBalancedAndDiverse) {
  const auto& ds = shard_dataset();
  sharding_config cfg;  // iid
  const auto shards = make_shards(ds, 5, cfg, 23);
  const auto expected = ds.train_size() / 5;
  for (const auto& s : shards) {
    EXPECT_NEAR(static_cast<double>(s.size()), static_cast<double>(expected), 1.0);
    // near-uniform labels: entropy close to log(10)
    EXPECT_GT(shard_label_entropy(ds, s), 0.85 * std::log(10.0));
  }
}

TEST(Sharding, ByClassShardsSeeFewClasses) {
  const auto& ds = shard_dataset();
  sharding_config cfg;
  cfg.strategy = shard_strategy::by_class;
  const auto shards = make_shards(ds, 5, cfg, 23);
  for (const auto& s : shards) {
    std::set<std::int64_t> labels;
    for (std::int64_t i : s) labels.insert(static_cast<std::int64_t>(ds.train_labels()[i]));
    EXPECT_LE(labels.size(), 3u);  // 10 classes over 5 clients: ~2 each (+1 boundary)
  }
}

TEST(Sharding, DirichletSkewGrowsAsAlphaShrinks) {
  const auto& ds = shard_dataset();
  const auto entropy_at = [&](float alpha) {
    sharding_config cfg;
    cfg.strategy = shard_strategy::dirichlet;
    cfg.dirichlet_alpha = alpha;
    return mean_entropy(ds, make_shards(ds, 5, cfg, 23));
  };
  const double skewed = entropy_at(0.1f);
  const double mild = entropy_at(1.0f);
  const double near_iid = entropy_at(100.0f);
  EXPECT_LT(skewed, mild);
  EXPECT_LT(mild, near_iid);
  EXPECT_GT(near_iid, 0.9 * std::log(10.0));
}

TEST(Sharding, DirichletRejectsNonPositiveAlpha) {
  sharding_config cfg;
  cfg.strategy = shard_strategy::dirichlet;
  cfg.dirichlet_alpha = 0.0f;
  EXPECT_THROW(make_shards(shard_dataset(), 3, cfg, 23), error);
}

TEST(Sharding, MoreClientsThanSamplesThrows) {
  data::dataset_config c = data::cifar10_like();
  c.classes = 2;
  c.train_per_class = 2;
  c.test_per_class = 1;
  const data::dataset tiny{c};
  EXPECT_THROW(make_shards(tiny, 10, sharding_config{}, 23), error);
}

TEST(Sharding, EveryClientKeepsAtLeastOneSampleUnderExtremeSkew) {
  const auto& ds = shard_dataset();
  sharding_config cfg;
  cfg.strategy = shard_strategy::dirichlet;
  cfg.dirichlet_alpha = 0.01f;  // near-degenerate draws
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const auto shards = make_shards(ds, 8, cfg, seed);
    for (const auto& s : shards) EXPECT_FALSE(s.empty());
  }
}

TEST(Sharding, TinyAlphaStillCoversEverySampleDisjointly) {
  const auto& ds = shard_dataset();
  sharding_config cfg;
  cfg.strategy = shard_strategy::dirichlet;
  cfg.dirichlet_alpha = 0.01f;  // near-degenerate: most classes collapse to one client
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const auto shards = make_shards(ds, 8, cfg, seed);
    expect_valid_partition(shards, ds.train_size());
  }
}

TEST(Sharding, MoreClientsThanClassesStillPartitions) {
  data::dataset_config c = data::cifar10_like();
  c.classes = 4;
  c.train_per_class = 30;
  c.test_per_class = 5;
  const data::dataset ds{c};
  for (const shard_strategy strategy :
       {shard_strategy::iid, shard_strategy::by_class, shard_strategy::dirichlet}) {
    sharding_config cfg;
    cfg.strategy = strategy;
    cfg.dirichlet_alpha = 0.1f;
    const auto shards = make_shards(ds, 7, cfg, 23);  // 7 clients > 4 classes
    ASSERT_EQ(shards.size(), 7u) << shard_strategy_name(strategy);
    expect_valid_partition(shards, ds.train_size());
  }
}

TEST(Sharding, EmptyShardRedistributionPreservesThePartition) {
  // A tiny dataset with extreme skew forces empty shards before
  // fix_empty_shards moves one sample from the largest shard into each;
  // the result must still be a disjoint full cover with no empties.
  data::dataset_config c = data::cifar10_like();
  c.classes = 2;
  c.train_per_class = 30;
  c.test_per_class = 5;
  const data::dataset tiny{c};
  sharding_config cfg;
  cfg.strategy = shard_strategy::dirichlet;
  cfg.dirichlet_alpha = 0.01f;  // 2 classes over 10 clients: >= 8 empties pre-fix
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto shards = make_shards(tiny, 10, cfg, seed);
    expect_valid_partition(shards, tiny.train_size());
    for (const auto& s : shards) EXPECT_FALSE(s.empty());
  }
}

TEST(Federation, ParticipationFloorsAtHalfBoundaries) {
  // Regression: llround(0.5 * 5) picked 3 of 5 clients — more than the
  // requested fraction. Floor semantics keep it at 2.
  const auto& ds = shard_dataset();
  models::task_spec task;
  task.image_size = ds.config().image_size;
  task.classes = ds.config().classes;
  federation_config fc;
  fc.clients = 5;
  fc.compromised = 0;
  fc.participation = 0.5f;
  federation fed{fc, [&] { return models::make_model("ViT-B/16", task); }, ds};
  for (std::int64_t round = 0; round < 4; ++round)
    EXPECT_EQ(fed.round_participant_ids(round).size(), 2u);

  // Floor must absorb float representation error from either side: 0.3f
  // stores above 0.3 and 0.7f below 0.7 — both must reach their exact count.
  fc.clients = 10;
  fc.participation = 0.3f;
  federation three{fc, [&] { return models::make_model("ViT-B/16", task); }, ds};
  EXPECT_EQ(three.round_participant_ids(0).size(), 3u);
  fc.participation = 0.7f;
  federation seven{fc, [&] { return models::make_model("ViT-B/16", task); }, ds};
  EXPECT_EQ(seven.round_participant_ids(0).size(), 7u);
}

TEST(Federation, RoundSamplingVariesAcrossRoundsAndSeeds) {
  // Regression for the weak seed ^ (0xab5e17 + round * 131) mix: the round
  // seed now routes through a splitmix64 finalizer, so consecutive rounds
  // draw visibly different participant sets.
  const auto& ds = shard_dataset();
  models::task_spec task;
  task.image_size = ds.config().image_size;
  task.classes = ds.config().classes;
  federation_config fc;
  fc.clients = 10;
  fc.compromised = 0;
  fc.participation = 0.4f;
  federation fed{fc, [&] { return models::make_model("ViT-B/16", task); }, ds};

  std::set<std::vector<std::int64_t>> distinct;
  for (std::int64_t round = 0; round < 8; ++round) {
    std::vector<std::int64_t> ids = fed.round_participant_ids(round);
    EXPECT_EQ(ids.size(), 4u);
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(std::set<std::int64_t>(ids.begin(), ids.end()).size(), ids.size());
    distinct.insert(std::move(ids));
  }
  // 8 draws of 4-of-10: collisions are possible, ubiquity is not.
  EXPECT_GE(distinct.size(), 4u);

  // The preview is deterministic per (seed, round) and shifts with the seed.
  federation same{fc, [&] { return models::make_model("ViT-B/16", task); }, ds};
  EXPECT_EQ(fed.round_participant_ids(3), same.round_participant_ids(3));
  fc.seed = fc.seed + 1;
  federation other{fc, [&] { return models::make_model("ViT-B/16", task); }, ds};
  bool any_difference = false;
  for (std::int64_t round = 0; round < 8; ++round)
    any_difference =
        any_difference || fed.round_participant_ids(round) != other.round_participant_ids(round);
  EXPECT_TRUE(any_difference);
}

TEST(Federation, PartialParticipationHalvesTheTraffic) {
  const auto& ds = shard_dataset();
  models::task_spec task;
  task.image_size = ds.config().image_size;
  task.classes = ds.config().classes;
  const fl::model_factory factory = [&] { return models::make_model("ViT-B/16", task); };

  const auto run = [&](float participation) {
    federation_config fc;
    fc.clients = 4;
    fc.compromised = 0;
    fc.local.epochs = 1;
    fc.local.batch_size = 16;
    fc.participation = participation;
    federation fed{fc, factory, ds};
    fed.run_rounds(2);
    return fed.traffic().messages;
  };
  const std::int64_t full = run(1.0f);
  const std::int64_t half = run(0.5f);
  EXPECT_EQ(full, 16);  // 2 rounds x 4 clients x (broadcast + upload)
  EXPECT_EQ(half, 8);   // only 2 of 4 clients per round
}

TEST(Federation, ParticipationAlwaysReachesAtLeastOneClient) {
  const auto& ds = shard_dataset();
  models::task_spec task;
  task.image_size = ds.config().image_size;
  task.classes = ds.config().classes;
  federation_config fc;
  fc.clients = 3;
  fc.compromised = 0;
  fc.local.epochs = 1;
  fc.local.batch_size = 16;
  fc.participation = 0.01f;  // rounds to zero clients; must clamp to one
  federation fed{fc, [&] { return models::make_model("ViT-B/16", task); }, ds};
  fed.run_round();
  EXPECT_EQ(fed.traffic().messages, 2);
  EXPECT_EQ(fed.server().round(), 1);
}

TEST(Federation, InvalidParticipationThrows) {
  const auto& ds = shard_dataset();
  models::task_spec task;
  task.image_size = ds.config().image_size;
  task.classes = ds.config().classes;
  federation_config fc;
  fc.clients = 2;
  fc.compromised = 0;
  fc.participation = 0.0f;
  federation fed{fc, [&] { return models::make_model("ViT-B/16", task); }, ds};
  EXPECT_THROW(fed.run_round(), error);
}

TEST(Federation, RunsUnderNonIidShardingAndRobustAggregation) {
  const auto& ds = shard_dataset();
  federation_config fc;
  fc.clients = 3;
  fc.compromised = 1;
  fc.local.epochs = 1;
  fc.local.batch_size = 16;
  fc.sharding.strategy = shard_strategy::dirichlet;
  fc.sharding.dirichlet_alpha = 0.5f;
  fc.aggregation = aggregation_rule::coordinate_median;

  models::task_spec task;
  task.image_size = ds.config().image_size;
  task.classes = ds.config().classes;
  federation fed{fc, [&] { return models::make_model("ViT-B/16", task); }, ds};
  fed.run_rounds(2);
  EXPECT_GT(fed.global_test_accuracy(), 0.3f);  // learns despite skew + median
  EXPECT_EQ(fed.server().round(), 2);
}

}  // namespace
}  // namespace pelta::fl
