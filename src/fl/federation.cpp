#include "fl/federation.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "tensor/parallel.h"

namespace pelta::fl {

federation::federation(const federation_config& config, const model_factory& factory,
                       const data::dataset& ds)
    : config_{config}, dataset_{&ds}, server_{factory()} {
  PELTA_CHECK_MSG(config.clients >= 1, "federation needs at least one client");
  PELTA_CHECK_MSG(config.compromised >= 0 && config.compromised <= config.clients,
                  "compromised count out of range");

  std::vector<std::vector<std::int64_t>> shards =
      make_shards(ds, config.clients, config.sharding, config.seed);
  for (std::int64_t c = 0; c < config.clients; ++c) {
    const bool malicious = c >= config.clients - config.compromised;
    if (malicious)
      clients_.push_back(std::make_unique<compromised_client>(
          c, factory(), std::move(shards[static_cast<std::size_t>(c)]), ds));
    else
      clients_.push_back(std::make_unique<fl_client>(
          c, factory(), std::move(shards[static_cast<std::size_t>(c)]), ds));
  }
}

std::vector<std::int64_t> federation::round_participant_ids(std::int64_t round) const {
  PELTA_CHECK_MSG(config_.participation > 0.0f && config_.participation <= 1.0f,
                  "participation " << config_.participation << " outside (0, 1]");
  std::vector<std::int64_t> ids(clients_.size());
  std::iota(ids.begin(), ids.end(), 0);
  // Floor semantics (documented on federation_config): 0.5 over 5 clients
  // samples 2, never 3 — llround's round-half-away would overshoot the
  // requested fraction at .5 boundaries. The *relative* epsilon absorbs
  // float representation error (~1.2e-7 relative: 0.7f stores below 0.7,
  // yet 0.7 of 10 clients must still reach 7).
  const double requested = static_cast<double>(config_.participation) *
                           static_cast<double>(ids.size()) *
                           (1.0 + 8.0 * static_cast<double>(
                                            std::numeric_limits<float>::epsilon()));
  const auto wanted =
      std::max<std::int64_t>(1, static_cast<std::int64_t>(std::floor(requested)));
  if (wanted >= static_cast<std::int64_t>(ids.size())) return ids;
  // Round seed through rng::fork's splitmix64 finalizer: the previous
  // seed ^ (0xab5e17 + round * 131) XOR-mix collided across (seed, round)
  // pairs and could hand the engine a near-degenerate state.
  rng round_gen = rng{config_.seed}.fork(static_cast<std::uint64_t>(round));
  std::shuffle(ids.begin(), ids.end(), round_gen.engine());
  ids.resize(static_cast<std::size_t>(wanted));
  return ids;
}

double federation::sync_round_ns(std::int64_t round) const {
  const auto profiles = make_client_profiles(client_count(), config_.async.heterogeneity);
  const auto payload = static_cast<std::int64_t>(server_.broadcast().size());
  double slowest = 0.0;
  for (const std::int64_t id : round_participant_ids(round)) {
    const auto c = static_cast<std::size_t>(id);
    slowest = std::max(slowest, async_episode_ns(profiles[c], clients_[c]->shard_size(),
                                                 config_.local.epochs, payload, network_));
  }
  return slowest;
}

std::vector<fl_client*> federation::sample_round_participants() {
  std::vector<fl_client*> out;
  for (const std::int64_t id : round_participant_ids(server_.round()))
    out.push_back(clients_[static_cast<std::size_t>(id)].get());
  return out;
}

void federation::run_round() {
  const byte_buffer global = server_.broadcast();
  const std::vector<fl_client*> participants = sample_round_participants();
  local_train_config local = config_.local;
  local.seed = config_.seed + static_cast<std::uint64_t>(server_.round());

  // Train the round's participants concurrently. Each client owns its model
  // and derives its rng stream from (id, round), so every update is
  // bit-identical to the serial schedule; the pre-sized slot array keeps
  // them in participant order for aggregation.
  std::vector<model_update> updates(participants.size());
  parallel_for(static_cast<std::int64_t>(participants.size()), 1, [&](std::int64_t i) {
    fl_client* client = participants[static_cast<std::size_t>(i)];
    client->receive_global(global);
    updates[static_cast<std::size_t>(i)] = client->local_update(local);
  });

  // Replay network accounting in participant order after the join so the
  // metered stats are deterministic for every thread count.
  for (const model_update& u : updates) {
    network_.record(static_cast<std::int64_t>(global.size()));            // broadcast leg
    network_.record(static_cast<std::int64_t>(u.parameters.size()));      // upload leg
  }
  server_.aggregate(updates, config_.aggregation);
}

void federation::run_rounds(std::int64_t rounds) {
  for (std::int64_t r = 0; r < rounds; ++r) run_round();
}

async_report federation::run_async(std::int64_t aggregations, const async_observer& on_flush) {
  const std::vector<client_profile> profiles =
      make_client_profiles(client_count(), config_.async.heterogeneity);
  std::vector<std::int64_t> shard_sizes;
  shard_sizes.reserve(clients_.size());
  for (const auto& client : clients_) shard_sizes.push_back(client->shard_size());
  const std::int64_t payload = static_cast<std::int64_t>(server_.broadcast().size());

  // The whole schedule — which episode trains from which global version,
  // which flush consumes it — is fixed up front on the simulated clock, so
  // nothing below depends on thread count or wall-clock.
  const async_schedule plan = plan_async_schedule(
      config_.async, profiles, shard_sizes, config_.local.epochs, payload, network_, aggregations,
      rng{config_.seed}.fork(0xa57ull).seed());

  // Group the applied episodes by start version, per client in episode
  // order: episodes of the same client share its local model and rng round
  // counter, so they stay sequential; distinct clients run concurrently.
  std::vector<std::vector<std::pair<std::int64_t, std::vector<std::size_t>>>> by_version(
      static_cast<std::size_t>(aggregations));
  {
    std::vector<std::vector<std::vector<std::size_t>>> per_client(
        static_cast<std::size_t>(aggregations),
        std::vector<std::vector<std::size_t>>(clients_.size()));
    for (std::size_t j = 0; j < plan.jobs.size(); ++j) {
      const async_job& job = plan.jobs[j];
      if (job.aggregation < 0) continue;  // dropped / stale / never flushed
      per_client[static_cast<std::size_t>(job.start_version)]
                [static_cast<std::size_t>(job.client)]
                    .push_back(j);
    }
    for (std::size_t v = 0; v < per_client.size(); ++v)
      for (std::size_t c = 0; c < per_client[v].size(); ++c)
        if (!per_client[v][c].empty())
          by_version[v].push_back({static_cast<std::int64_t>(c), std::move(per_client[v][c])});
  }

  async_report report;
  report.aggregations = plan.aggregations;
  report.updates_dropped = plan.dropped;
  report.updates_stale = plan.stale;
  report.simulated_ns = plan.end_ns;

  local_train_config local = config_.local;
  // Per-(client, episode) rng streams separate through the client's own
  // round counter inside local_update; the base seed stays fixed.
  local.seed = config_.seed;

  // Replay the metered traffic in simulated-event order, drained up to each
  // flush so traffic() read from the on_flush observer is consistent with
  // the simulated clock — same determinism guarantee as the sync path (the
  // legs never cross worker threads).
  std::size_t leg_cursor = 0;
  const auto replay_legs_until = [&](double t) {
    while (leg_cursor < plan.legs.size() && plan.legs[leg_cursor].ns <= t) {
      network_.record(payload);
      ++leg_cursor;
    }
  };

  std::vector<model_update> updates(plan.jobs.size());
  double staleness_sum = 0.0;
  for (std::int64_t k = 0; k < plan.aggregations; ++k) {
    // 1. Train every applied episode that starts from the current global
    //    version, concurrently across clients.
    const byte_buffer state = server_.broadcast();
    const auto& groups = by_version[static_cast<std::size_t>(k)];
    parallel_for(static_cast<std::int64_t>(groups.size()), 1, [&](std::int64_t g) {
      const auto& [client_id, job_indices] = groups[static_cast<std::size_t>(g)];
      fl_client* client = clients_[static_cast<std::size_t>(client_id)].get();
      for (const std::size_t j : job_indices) {
        client->receive_global(state);
        updates[j] = client->local_update(local);
      }
    });
    for (const auto& group : groups)
      report.trainings += static_cast<std::int64_t>(group.second.size());

    // 2. Flush the planned buffer: stamp staleness, aggregate with the
    //    1/sqrt(1+s) down-weighting.
    std::vector<model_update> batch;
    batch.reserve(plan.flush_inputs[static_cast<std::size_t>(k)].size());
    for (const std::size_t j : plan.flush_inputs[static_cast<std::size_t>(k)]) {
      model_update u = std::move(updates[j]);
      u.staleness = plan.jobs[j].staleness;
      staleness_sum += static_cast<double>(u.staleness);
      report.max_staleness_seen = std::max(report.max_staleness_seen, u.staleness);
      ++report.updates_applied;
      batch.push_back(std::move(u));
    }
    server_.aggregate(batch, config_.aggregation);
    replay_legs_until(plan.flush_ns[static_cast<std::size_t>(k)]);
    if (on_flush) on_flush(k, plan.flush_ns[static_cast<std::size_t>(k)]);
  }
  if (report.updates_applied > 0)
    report.mean_staleness = staleness_sum / static_cast<double>(report.updates_applied);

  // Every planned leg is timestamped at or before the final flush, but
  // drain defensively so the totals never depend on that invariant.
  replay_legs_until(std::numeric_limits<double>::infinity());

  return report;
}

std::vector<compromised_client*> federation::compromised_clients() {
  std::vector<compromised_client*> out;
  for (auto& client : clients_)
    if (auto* cc = dynamic_cast<compromised_client*>(client.get())) out.push_back(cc);
  return out;
}

float federation::global_test_accuracy() const {
  return models::accuracy(server_.global_model(), dataset_->test_images(),
                          dataset_->test_labels());
}

}  // namespace pelta::fl
