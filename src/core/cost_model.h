// The one price list for compute on the simulated clock: batched forwards
// (exec::run_batches, plan_cluster, bench_serving's serial reference) and
// local-training episodes (fl::async_episode_ns). Enclave time is priced by
// tee::cost_model. Hand-set defaults, not measurements; serving carries the
// settable copy, serve::server_config::cost. Like core/simclock.h, this
// header includes nothing from src/.
#pragma once

#include <cstdint>

namespace pelta::core {

struct cost_model {
  /// Per-batch fixed cost (graph construction, dispatch) batching amortises.
  double batch_setup_ns = 1e6;
  /// Per-sample forward cost, and training cost per (sample × epoch).
  double compute_ns_per_sample = 2e5;

  /// Finish stamp of a `size`-sample batch starting at `start_ns`, added
  /// left to right: start + batch_ns(size) rounds differently on some
  /// non-integer stamps, and the cluster plans are fixed with this order.
  double finish_ns(double start_ns, std::int64_t size) const {
    return start_ns + batch_setup_ns + compute_ns_per_sample * static_cast<double>(size);
  }
  /// setup + per-sample × size (0 + setup is exact).
  double batch_ns(std::int64_t size) const { return finish_ns(0.0, size); }

  /// ((per-sample × epochs) × samples) × scale, in the multiply order every
  /// async schedule is fixed with.
  double train_ns(std::int64_t samples, std::int64_t epochs, double scale) const {
    return compute_ns_per_sample * static_cast<double>(epochs) * static_cast<double>(samples) *
           scale;
  }
};

}  // namespace pelta::core
