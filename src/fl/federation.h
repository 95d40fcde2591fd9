// Round orchestration for a star-topology federation (Fig. 1): the trusted
// server broadcasts, clients (one of which may be compromised) train
// locally, updates flow back for FedAvg. All traffic is metered through the
// network simulator. Two runtimes share the substrate:
//
//   run_round / run_rounds — the synchronous barrier: every sampled client
//       trains to completion, then one aggregation.
//   run_async — FedBuff-style buffered asynchronous rounds on a simulated
//       clock (fl/async.h): clients train continuously, the server
//       aggregates whenever config.async.buffer_size updates are buffered,
//       stale updates are down-weighted by 1/sqrt(1+s) or discarded.
#pragma once

#include <functional>

#include "fl/async.h"
#include "fl/server.h"
#include "fl/sharding.h"

namespace pelta::fl {

using model_factory = std::function<std::unique_ptr<models::model>()>;

/// Called after each async buffer flush with (aggregation index, simulated
/// time of the flush); the bench samples time-to-accuracy through this.
using async_observer = std::function<void(std::int64_t, double)>;

struct federation_config {
  std::int64_t clients = 4;
  std::int64_t compromised = 1;  ///< the last `compromised` clients are malicious
  /// Local training per episode. local.seed is not read: the federation
  /// derives the training seed itself, seed + round in sync runs and seed
  /// in async runs (each client's round counter separates its episodes).
  local_train_config local;
  sharding_config sharding;      ///< iid / by-class / dirichlet (fl/sharding.h)
  aggregation_rule aggregation = aggregation_rule::fedavg;  ///< fl/aggregation.h
  async_config async;            ///< buffered-async runtime knobs (fl/async.h)
  /// Fraction of clients sampled per round, with floor semantics: a round
  /// reaches max(1, floor(participation * clients)) clients, so 0.5 over 5
  /// clients samples 2 — never rounds up past the requested fraction. Real
  /// edge deployments "harness the idle state of edge devices to handle
  /// intermittent compute node availability" (§VI, [67]) — a round only
  /// ever reaches the currently available subset.
  float participation = 1.0f;
  std::uint64_t seed = 23;
};

class federation {
public:
  /// Shards the dataset's train split across clients per config.sharding,
  /// shuffled under config.seed.
  federation(const federation_config& config, const model_factory& factory,
             const data::dataset& ds);

  /// One FL round: broadcast -> local training -> aggregate.
  void run_round();
  void run_rounds(std::int64_t rounds);

  /// Buffered asynchronous federation for `aggregations` buffer flushes,
  /// per config.async. The schedule is planned on a simulated clock
  /// (fl/async.h) and the training episodes execute on the thread pool —
  /// bit-identical for every PELTA_THREADS value.
  async_report run_async(std::int64_t aggregations, const async_observer& on_flush = {});

  fl_server& server() { return server_; }
  std::int64_t client_count() const { return static_cast<std::int64_t>(clients_.size()); }
  fl_client& client(std::int64_t i) { return *clients_[static_cast<std::size_t>(i)]; }

  /// The compromised clients (empty when config.compromised == 0).
  std::vector<compromised_client*> compromised_clients();

  network_stats traffic() const { return network_.stats(); }

  /// Deterministic preview of the client ids a sync round would sample for
  /// `round` (in training order). Depends only on (seed, round,
  /// participation, clients); run_round consumes the same list.
  std::vector<std::int64_t> round_participant_ids(std::int64_t round) const;

  /// Simulated duration of sync round `round`: the barrier waits for its
  /// slowest participant's async_episode_ns under config.async's profiles.
  double sync_round_ns(std::int64_t round) const;

  /// Global-model accuracy on the dataset's test split.
  float global_test_accuracy() const;

private:
  /// The clients available this round (all of them at participation = 1).
  std::vector<fl_client*> sample_round_participants();

  federation_config config_;
  const data::dataset* dataset_;
  fl_server server_;
  std::vector<std::unique_ptr<fl_client>> clients_;
  network network_;
};

}  // namespace pelta::fl
