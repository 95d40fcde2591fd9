// Buffered asynchronous federation (FedBuff-style) on a simulated clock.
//
// federation::run_round is a synchronous barrier: every sampled client
// trains to completion before aggregation, so one straggler stalls the
// round. Real edge fleets are intermittently available (§VI), which is why
// async FL buffers updates instead: clients train continuously, each pull
// of the global model starts a new local episode, and the server aggregates
// whenever K updates have been buffered — stale updates down-weighted by
// staleness_weight (1/sqrt(1+s), fl/aggregation.h) and discarded beyond
// max_staleness.
//
// The runtime is split so the schedule never depends on wall-clock or
// thread count:
//
//   1. plan_async_schedule — a pure, single-threaded event loop over the
//      *simulated* clock. Completion times come from the network cost model
//      plus a modeled compute duration (core::cost_model::train_ns,
//      core/cost_model.h, at the client_profile's compute_scale);
//      dropout draws come from per-job forked rng streams. The plan fixes,
//      deterministically, which episode trains from which global version
//      and which aggregation consumes it.
//   2. federation::run_async — executes the plan, dispatching the training
//      episodes of each global version onto the thread pool (episodes of
//      the same client stay sequential), then aggregating exactly the
//      planned buffer. Bit-identical for every PELTA_THREADS value; the
//      determinism suite compares pooled vs forced-serial runs.
#pragma once

#include <cstdint>
#include <vector>

#include "fl/aggregation.h"
#include "fl/network.h"

namespace pelta::fl {

struct async_config {
  /// K: aggregate whenever this many updates are buffered.
  std::int64_t buffer_size = 2;
  /// Updates arriving with staleness beyond this are discarded unseen.
  std::int64_t max_staleness = 8;
  /// Fleet heterogeneity (stragglers, dropout) driving the simulated clock.
  heterogeneity_config heterogeneity;
};

/// One planned client training episode.
struct async_job {
  std::int64_t client = -1;
  std::int64_t start_version = 0;  ///< global version installed at episode start
  std::int64_t aggregation = -1;   ///< flush that consumed it; -1 = never applied
  std::int64_t staleness = 0;      ///< versions elapsed when the upload arrived
  bool dropped = false;            ///< device went offline before the upload
  bool stale = false;              ///< arrived beyond max_staleness, discarded
  double start_ns = 0.0;
  double finish_ns = 0.0;
};

/// Modeled duration of one client training episode: download the broadcast,
/// train (core::cost_model::train_ns at the profile's compute_scale), upload
/// the update. The async planner and federation::sync_round_ns price
/// episodes through this.
double async_episode_ns(const client_profile& profile, std::int64_t shard_size, std::int64_t epochs,
                        std::int64_t payload_bytes, const network& net);

/// One metered transfer leg, in simulated chronological order.
struct async_traffic_leg {
  std::int64_t client = -1;
  bool upload = false;  ///< false: broadcast (server -> client)
  double ns = 0.0;      ///< simulated time the leg is metered at
};

struct async_schedule {
  std::vector<async_job> jobs;  ///< in episode-creation order
  /// Per-aggregation job indices, in buffer-arrival order.
  std::vector<std::vector<std::size_t>> flush_inputs;
  std::vector<double> flush_ns;  ///< simulated time of each aggregation
  std::vector<async_traffic_leg> legs;
  std::int64_t aggregations = 0;
  std::int64_t dropped = 0;
  std::int64_t stale = 0;
  double end_ns = 0.0;  ///< simulated time of the final aggregation
};

/// Plan the buffered-async schedule up to `target_aggregations` flushes.
/// Pure timing: depends only on the configuration, the profiles, the shard
/// sizes, the payload size and `seed` — never on trained parameter values,
/// wall-clock or thread count.
async_schedule plan_async_schedule(const async_config& config,
                                   const std::vector<client_profile>& profiles,
                                   const std::vector<std::int64_t>& shard_sizes,
                                   std::int64_t epochs, std::int64_t payload_bytes,
                                   const network& net, std::int64_t target_aggregations,
                                   std::uint64_t seed);

/// What one run_async call did, in simulated terms.
struct async_report {
  std::int64_t aggregations = 0;    ///< buffer flushes applied
  std::int64_t updates_applied = 0; ///< client updates aggregated
  std::int64_t updates_dropped = 0; ///< device dropouts (upload never sent)
  std::int64_t updates_stale = 0;   ///< discarded beyond max_staleness
  std::int64_t trainings = 0;       ///< training episodes actually executed
  double simulated_ns = 0.0;        ///< event-clock time of the final flush
  double mean_staleness = 0.0;      ///< over applied updates
  std::int64_t max_staleness_seen = 0;
};

}  // namespace pelta::fl
