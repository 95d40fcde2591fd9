// Buffered asynchronous federation (fl/async.h): the 1/sqrt(1+s) staleness
// weight, seeded straggler fleets, the simulated-clock planner's invariants, and
// the end-to-end run_async path on a tiny federation.
#include <gtest/gtest.h>

#include <set>

#include "core/cost_model.h"
#include "fl/federation.h"
#include "models/vit.h"

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
    c.name = "async-vit";
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

// ---- staleness weighting ---------------------------------------------------

TEST(StalenessWeight, MatchesTheConfiguredDecay) {
  EXPECT_EQ(staleness_weight(0), 1.0f);  // exact: sync rounds are unweighted
  EXPECT_FLOAT_EQ(staleness_weight(3), 0.5f);
  EXPECT_FLOAT_EQ(staleness_weight(8), 1.0f / 3.0f);
  EXPECT_THROW(staleness_weight(-1), error);
}

TEST(StalenessWeight, DownWeightsStaleUpdatesInWeightedRules) {
  auto global = tiny_vit_factory()();
  const byte_buffer ref = global->params().save_values();
  auto a = tiny_vit_factory()();
  auto b = tiny_vit_factory()();
  const std::size_t n_params = a->params().size();
  for (std::size_t k = 0; k < n_params; ++k) {
    a->params().at(k).value.fill_(1.0f);
    b->params().at(k).value.fill_(5.0f);
  }
  model_update fresh{0, 10, a->params().save_values(), /*staleness=*/0};
  model_update stale{1, 10, b->params().save_values(), /*staleness=*/3};
  model_update also_fresh = stale;
  also_fresh.staleness = 0;

  const byte_buffer unweighted =
      aggregate_states(ref, {fresh, also_fresh}, aggregation_rule::fedavg);
  const byte_buffer weighted = aggregate_states(ref, {fresh, stale}, aggregation_rule::fedavg);

  auto first_value = [&](const byte_buffer& state) {
    std::size_t offset = 0;
    return deserialize_tensor(state, offset)[0];
  };
  // equal weights -> 3; stale side halved (1/sqrt(4)) -> (1 + 5*0.5) / 1.5
  EXPECT_NEAR(first_value(unweighted), 3.0f, 1e-5f);
  EXPECT_NEAR(first_value(weighted), 7.0f / 3.0f, 1e-5f);
}

TEST(StalenessWeight, OrderStatisticRulesIgnoreStaleness) {
  auto global = tiny_vit_factory()();
  const byte_buffer ref = global->params().save_values();
  std::vector<model_update> updates;
  for (int i = 0; i < 3; ++i) {
    auto m = tiny_vit_factory()();
    const std::size_t n_params = m->params().size();
    for (std::size_t k = 0; k < n_params; ++k)
      m->params().at(k).value.fill_(static_cast<float>(i + 1));
    updates.push_back({i, 10, m->params().save_values(), /*staleness=*/0});
  }
  std::vector<model_update> stale = updates;
  for (std::size_t i = 0; i < stale.size(); ++i) stale[i].staleness = static_cast<std::int64_t>(4 * i);
  for (const aggregation_rule rule :
       {aggregation_rule::coordinate_median, aggregation_rule::trimmed_mean}) {
    EXPECT_TRUE(aggregate_states(ref, updates, rule) == aggregate_states(ref, stale, rule))
        << aggregation_rule_name(rule) << " must ignore staleness weights";
  }
}

// ---- fleet heterogeneity ---------------------------------------------------

TEST(Heterogeneity, ProfilesAreSeedDeterministic) {
  heterogeneity_config cfg;
  cfg.stragglers = 2;
  cfg.straggler_slowdown = 4.0;
  cfg.seed = 11;
  const auto first = make_client_profiles(8, cfg);
  const auto again = make_client_profiles(8, cfg);
  ASSERT_EQ(first.size(), 8u);
  for (std::size_t c = 0; c < first.size(); ++c)
    EXPECT_EQ(first[c].compute_scale, again[c].compute_scale);
  cfg.seed = 12;
  const auto other = make_client_profiles(8, cfg);
  bool any_difference = false;
  for (std::size_t c = 0; c < first.size(); ++c)
    any_difference = any_difference || first[c].compute_scale != other[c].compute_scale;
  EXPECT_TRUE(any_difference);  // the seed picks which clients straggle
}

TEST(Heterogeneity, StragglersGetTheConfiguredSlowdown) {
  heterogeneity_config cfg;  // compute_scale is exactly 1 or slowdown
  cfg.stragglers = 3;
  cfg.straggler_slowdown = 6.0;
  const auto profiles = make_client_profiles(10, cfg);
  std::int64_t slowed = 0;
  for (const client_profile& p : profiles) {
    if (p.compute_scale == 6.0) {
      ++slowed;
    } else {
      EXPECT_EQ(p.compute_scale, 1.0);
    }
  }
  EXPECT_EQ(slowed, 3);
}

TEST(Heterogeneity, RejectsInvalidConfigs) {
  heterogeneity_config cfg;
  cfg.stragglers = 5;
  EXPECT_THROW(make_client_profiles(3, cfg), error);
  cfg.stragglers = 0;
  cfg.dropout_rate = 1.0;
  EXPECT_THROW(make_client_profiles(3, cfg), error);
}

// ---- the simulated-clock planner -------------------------------------------

async_schedule plan_uniform(const async_config& cfg, std::int64_t clients,
                            std::int64_t target, std::uint64_t seed = 7) {
  const network net;
  const std::vector<client_profile> profiles =
      make_client_profiles(clients, cfg.heterogeneity);
  const std::vector<std::int64_t> shard_sizes(static_cast<std::size_t>(clients), 10);
  return plan_async_schedule(cfg, profiles, shard_sizes, /*epochs=*/1,
                             /*payload_bytes=*/1000, net, target, seed);
}

TEST(AsyncPlan, FlushesExactlyEveryKUpdates) {
  async_config cfg;
  cfg.buffer_size = 2;
  const async_schedule plan = plan_uniform(cfg, 4, 3);
  EXPECT_EQ(plan.aggregations, 3);
  ASSERT_EQ(plan.flush_inputs.size(), 3u);
  ASSERT_EQ(plan.flush_ns.size(), 3u);
  for (const auto& flush : plan.flush_inputs) EXPECT_EQ(flush.size(), 2u);
  for (std::size_t k = 1; k < plan.flush_ns.size(); ++k)
    EXPECT_GE(plan.flush_ns[k], plan.flush_ns[k - 1]);
  EXPECT_EQ(plan.end_ns, plan.flush_ns.back());
  EXPECT_EQ(plan.dropped, 0);
  EXPECT_EQ(plan.stale, 0);

  // Consumed jobs: consistent version/staleness bookkeeping.
  for (std::size_t k = 0; k < plan.flush_inputs.size(); ++k)
    for (const std::size_t j : plan.flush_inputs[k]) {
      const async_job& job = plan.jobs[j];
      EXPECT_EQ(job.aggregation, static_cast<std::int64_t>(k));
      EXPECT_EQ(job.staleness, static_cast<std::int64_t>(k) - job.start_version);
      EXPECT_LE(job.start_version, static_cast<std::int64_t>(k));
    }
}

TEST(AsyncPlan, IsDeterministicForFixedSeed) {
  async_config cfg;
  cfg.buffer_size = 3;
  cfg.heterogeneity.stragglers = 2;
  cfg.heterogeneity.dropout_rate = 0.3;
  const async_schedule a = plan_uniform(cfg, 5, 4, /*seed=*/21);
  const async_schedule b = plan_uniform(cfg, 5, 4, /*seed=*/21);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    EXPECT_EQ(a.jobs[j].client, b.jobs[j].client);
    EXPECT_EQ(a.jobs[j].aggregation, b.jobs[j].aggregation);
    EXPECT_EQ(a.jobs[j].dropped, b.jobs[j].dropped);
    EXPECT_EQ(a.jobs[j].finish_ns, b.jobs[j].finish_ns);
  }
  EXPECT_EQ(a.end_ns, b.end_ns);
  EXPECT_EQ(a.dropped, b.dropped);
}

TEST(AsyncPlan, StragglerContributesFewerUpdates) {
  async_config cfg;
  cfg.buffer_size = 2;
  const network net;
  std::vector<client_profile> profiles(3);
  profiles[0].compute_scale = 10.0;  // the straggler
  const std::vector<std::int64_t> shard_sizes(3, 50);
  const async_schedule plan =
      plan_async_schedule(cfg, profiles, shard_sizes, 1, 1000, net, 8, 7);

  std::vector<std::int64_t> applied(3, 0);
  for (const async_job& job : plan.jobs)
    if (job.aggregation >= 0) ++applied[static_cast<std::size_t>(job.client)];
  EXPECT_LT(applied[0], applied[1]);
  EXPECT_LT(applied[0], applied[2]);
  EXPECT_EQ(applied[0] + applied[1] + applied[2], 16);  // 8 flushes x K=2
}

TEST(AsyncPlan, TightStalenessBoundDiscardsSlowArrivals) {
  async_config cfg;
  cfg.buffer_size = 2;
  cfg.max_staleness = 0;
  const network net;
  std::vector<client_profile> profiles(3);
  profiles[0].compute_scale = 5.0;  // arrives a few versions late
  const std::vector<std::int64_t> shard_sizes(3, 50);
  const async_schedule plan =
      plan_async_schedule(cfg, profiles, shard_sizes, 1, 1000, net, 10, 7);
  EXPECT_GT(plan.stale, 0);
  for (const async_job& job : plan.jobs)
    if (job.aggregation >= 0) {
      EXPECT_EQ(job.staleness, 0);
    }
}

TEST(AsyncPlan, DropoutDiscardsButStillConverges) {
  async_config cfg;
  cfg.buffer_size = 2;
  cfg.heterogeneity.dropout_rate = 0.5;
  const async_schedule plan = plan_uniform(cfg, 4, 5, /*seed=*/3);
  EXPECT_EQ(plan.aggregations, 5);
  EXPECT_GT(plan.dropped, 0);
  for (const async_job& job : plan.jobs)
    if (job.dropped) {
      EXPECT_EQ(job.aggregation, -1);
    }
}

TEST(AsyncPlan, RejectsInvalidConfigs) {
  async_config cfg;
  cfg.buffer_size = 0;
  EXPECT_THROW(plan_uniform(cfg, 3, 1), error);
  cfg.buffer_size = 2;
  cfg.max_staleness = -1;
  EXPECT_THROW(plan_uniform(cfg, 3, 1), error);
}

// An episode is its two transfer legs around the shared training price
// (core/cost_model.h); the async side adds nothing of its own.
TEST(AsyncPlan, EpisodeIsTwoTransfersAroundTheSharedTrainPrice) {
  heterogeneity_config het;
  het.stragglers = 1;
  het.straggler_slowdown = 5.0;
  const network net;
  for (const client_profile& p : make_client_profiles(4, het)) {
    const double leg = net.transfer_ns(1000);
    const double train = core::cost_model{}.train_ns(37, 3, p.compute_scale);
    EXPECT_EQ(async_episode_ns(p, 37, 3, 1000, net), leg + train + leg);
    // The multiply order every pinned async schedule was computed with.
    EXPECT_EQ(train, 2e5 * 3.0 * 37.0 * p.compute_scale);
  }
}

// The sync barrier is priced with the same episodes: a round lasts as long
// as its slowest participant's.
TEST(AsyncPlan, SyncRoundLastsTheSlowestEpisode) {
  federation_config cfg;
  cfg.clients = 4;
  cfg.compromised = 0;
  cfg.async.heterogeneity.stragglers = 1;
  cfg.async.heterogeneity.straggler_slowdown = 5.0;
  const data::dataset ds = small_dataset();
  federation fed{cfg, tiny_vit_factory(), ds};
  const std::vector<client_profile> profiles =
      make_client_profiles(cfg.clients, cfg.async.heterogeneity);
  const auto payload = static_cast<std::int64_t>(fed.server().broadcast().size());
  double slowest = 0.0;
  for (std::int64_t c = 0; c < cfg.clients; ++c)
    slowest = std::max(slowest, async_episode_ns(profiles[static_cast<std::size_t>(c)],
                                                 fed.client(c).shard_size(), cfg.local.epochs,
                                                 payload, network{}));
  EXPECT_GT(slowest, 0.0);
  EXPECT_EQ(fed.sync_round_ns(0), slowest);
}

// ---- end-to-end run_async --------------------------------------------------

TEST(FederationAsync, BufferedRoundsImproveTheGlobalModel) {
  const data::dataset ds = small_dataset();
  federation_config cfg;
  cfg.clients = 4;
  cfg.compromised = 0;
  cfg.local.epochs = 2;
  cfg.local.batch_size = 16;
  cfg.local.lr = 4e-3f;
  cfg.async.buffer_size = 2;
  cfg.async.heterogeneity.stragglers = 1;
  cfg.async.heterogeneity.straggler_slowdown = 4.0;
  federation fed{cfg, tiny_vit_factory(), ds};

  const float before = fed.global_test_accuracy();
  std::vector<double> flush_times;
  std::vector<std::int64_t> flush_messages;
  const async_report report = fed.run_async(6, [&](std::int64_t, double ns) {
    flush_times.push_back(ns);
    flush_messages.push_back(fed.traffic().messages);
  });
  const float after = fed.global_test_accuracy();

  EXPECT_EQ(report.aggregations, 6);
  EXPECT_EQ(report.updates_applied, 12);  // 6 flushes x K=2
  EXPECT_GE(report.trainings, report.updates_applied);
  EXPECT_GT(report.simulated_ns, 0.0);
  EXPECT_EQ(fed.server().round(), 6);  // each flush advances the version

  ASSERT_EQ(flush_times.size(), 6u);
  for (std::size_t k = 1; k < flush_times.size(); ++k)
    EXPECT_GE(flush_times[k], flush_times[k - 1]);
  EXPECT_EQ(flush_times.back(), report.simulated_ns);

  // Traffic is replayed up to each flush, so the observer sees consistent,
  // monotone stats — and both legs meter against the same payload size.
  EXPECT_GT(flush_messages.front(), 0);
  for (std::size_t k = 1; k < flush_messages.size(); ++k)
    EXPECT_GE(flush_messages[k], flush_messages[k - 1]);
  const std::int64_t payload = static_cast<std::int64_t>(fed.server().broadcast().size());
  EXPECT_GE(fed.traffic().messages, flush_messages.back());
  EXPECT_EQ(fed.traffic().bytes, fed.traffic().messages * payload);

  EXPECT_GT(after, before) << "async federation failed to learn";
}

TEST(FederationAsync, StalenessIsBoundedByTheConfiguredMaximum) {
  const data::dataset ds = small_dataset();
  federation_config cfg;
  cfg.clients = 3;
  cfg.compromised = 0;
  cfg.local.epochs = 1;
  cfg.local.batch_size = 16;
  cfg.async.buffer_size = 1;
  cfg.async.max_staleness = 2;
  cfg.async.heterogeneity.stragglers = 1;
  cfg.async.heterogeneity.straggler_slowdown = 8.0;
  federation fed{cfg, tiny_vit_factory(), ds};
  const async_report report = fed.run_async(5);
  EXPECT_EQ(report.aggregations, 5);
  EXPECT_LE(report.max_staleness_seen, 2);
  EXPECT_GE(report.mean_staleness, 0.0);
}

}  // namespace
}  // namespace pelta::fl
