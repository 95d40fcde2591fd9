// In-process star-topology network simulator for the FL substrate.
//
// Transfers are instantaneous in wall-clock terms; the simulator accounts
// message counts, bytes on the wire and a modeled latency (per-message RTT
// plus per-byte bandwidth cost), which the §VI overhead bench reports
// alongside the TEE costs.
//
// Real edge fleets are heterogeneous — the paper's §VI calls for harnessing
// "the idle state of edge devices to handle intermittent compute node
// availability" — so each client carries a client_profile scaling its
// modeled local-compute time, plus a per-episode dropout probability. Every
// client shares the one link cost model. make_client_profiles builds a
// seeded fleet with a fixed number of stragglers; the async scheduler
// (fl/async.h) plans its simulated clock from these.
#pragma once

#include <cstdint>
#include <vector>

#include "core/sync.h"

namespace pelta::fl {

struct network_stats {
  std::int64_t messages = 0;
  std::int64_t bytes = 0;
  double simulated_ns = 0.0;
};

/// Per-client heterogeneity. compute_scale multiplies the modeled
/// local-training duration on the async scheduler's simulated clock, and
/// dropout_rate is the probability one training episode ends with the device
/// offline before its upload lands.
struct client_profile {
  double compute_scale = 1.0;  ///< >1 = slower device
  double dropout_rate = 0.0;   ///< per-episode offline probability in [0, 1)
};

/// Seeded fleet generator: every client computes at scale 1, then
/// `stragglers` distinct clients — chosen by seeded shuffle — get their
/// compute_scale multiplied by straggler_slowdown.
struct heterogeneity_config {
  std::int64_t stragglers = 0;
  double straggler_slowdown = 4.0;
  double dropout_rate = 0.0;
  std::uint64_t seed = 23;
};

std::vector<client_profile> make_client_profiles(std::int64_t clients,
                                                 const heterogeneity_config& config);

class network {
public:
  /// Defaults model a ~1 Gbps link with 2 ms round-trip latency.
  explicit network(double ns_per_byte = 8.0, double per_message_ns = 2e6)
      : ns_per_byte_{ns_per_byte}, per_message_ns_{per_message_ns} {}

  /// Modeled one-way transfer time of `bytes`, without recording it. The
  /// async scheduler plans completion times from this and replays the
  /// accounting afterwards in simulated-event order.
  double transfer_ns(std::int64_t bytes) const {
    return per_message_ns_ + ns_per_byte_ * static_cast<double>(bytes);
  }

  /// Record one message of `bytes` payload; returns its simulated latency.
  /// Thread-safe; still, for *deterministic* stats, record in a fixed order
  /// (federation replays the legs in participant / simulated-event order
  /// after the training join rather than from inside worker threads).
  double record(std::int64_t bytes) {
    const double ns = transfer_ns(bytes);
    const sync::lock_guard lock{mutex_};
    ++stats_.messages;
    stats_.bytes += bytes;
    stats_.simulated_ns += ns;
    return ns;
  }

  /// Snapshot of the counters. Taken under the lock so a reader never sees
  /// a half-applied record() from another thread.
  network_stats stats() const {
    const sync::lock_guard lock{mutex_};
    return stats_;
  }
  void reset() {
    const sync::lock_guard lock{mutex_};
    stats_ = {};
  }

private:
  double ns_per_byte_;
  double per_message_ns_;
  mutable sync::mutex mutex_;
  network_stats stats_ PELTA_GUARDED_BY(mutex_);
};

}  // namespace pelta::fl
