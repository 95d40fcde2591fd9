// Aggregation rules for the FL server.
//
// The paper's motivation (§I) is that compromised clients weaponize
// adversarial examples into poisoning and backdoor attacks ([15] model
// replacement, [16] the adversarial lens on FL). A production FL substrate
// therefore ships Byzantine-robust aggregation alongside plain FedAvg;
// these rules are the standard trio evaluated by that literature, and the
// poisoning bench measures how each interacts with PELTA's client-side
// mitigation.
//
//   fedavg            — sample-count weighted mean (baseline; no defense)
//   coordinate_median — per-coordinate median across clients
//   trimmed_mean      — per-coordinate mean after dropping the k highest
//                       and k lowest values
//   norm_clipped_mean — each client's delta from the current global model
//                       is l2-clipped before the weighted mean (caps the
//                       boost of model-replacement attacks)
#pragma once

#include "fl/client.h"

namespace pelta::fl {

enum class aggregation_rule : std::uint8_t {
  fedavg,
  coordinate_median,
  trimmed_mean,
  norm_clipped_mean,
};

const char* aggregation_rule_name(aggregation_rule rule);

/// Down-weighting of stale updates in buffered-asynchronous aggregation
/// (FedBuff-style; see fl/async.h). An update's staleness s counts the
/// global versions that landed between the model it trained from and the
/// aggregation consuming it; sync rounds always aggregate at s = 0.
enum class staleness_weighting : std::uint8_t {
  none,            ///< ignore staleness (every update weighs its sample count)
  inverse_sqrt,    ///< 1 / sqrt(1 + s) — the FedBuff default
  inverse_linear,  ///< 1 / (1 + s) — harsher decay
};

const char* staleness_weighting_name(staleness_weighting weighting);

/// Multiplier applied to an update's aggregation weight: 1 at s = 0,
/// decaying as configured.
float staleness_weight(staleness_weighting weighting, std::int64_t staleness);

struct aggregation_config {
  aggregation_rule rule = aggregation_rule::fedavg;
  /// trimmed_mean: fraction trimmed from EACH side; floor(n * fraction)
  /// values are dropped per end (at least one when n >= 3).
  float trim_fraction = 0.2f;
  /// norm_clipped_mean: per-update delta l2 cap; <= 0 selects the median of
  /// the client delta norms (self-tuning, no magic constant).
  float clip_norm = 0.0f;
  /// Staleness down-weighting of each update's weight. Only the weighted
  /// rules (fedavg, norm_clipped_mean) honor it — coordinate_median and
  /// trimmed_mean are order statistics and intentionally ignore weights
  /// (sample counts and staleness alike). Note: federation::run_async
  /// overrides this per flush with async_config::weighting — configure the
  /// async knob there; this field drives direct aggregate_states callers.
  staleness_weighting staleness = staleness_weighting::none;
};

/// Aggregate `updates` (models::save_state payloads) into a fresh state buffer.
/// `reference` is the current global state — it defines the tensor
/// structure and anchors delta-based rules. All updates must match it.
byte_buffer aggregate_states(const byte_buffer& reference,
                             const std::vector<model_update>& updates,
                             const aggregation_config& config);

}  // namespace pelta::fl
