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
//                       and k lowest values, k = floor(0.2 n) (at least one
//                       when n >= 3)
//   norm_clipped_mean — each client's delta from the current global model
//                       is l2-clipped at the median delta norm before the
//                       weighted mean (caps the boost of model-replacement
//                       attacks; self-tuning, no magic constant)
//
// The weighted rules (fedavg, norm_clipped_mean) scale each update's sample
// count by staleness_weight; the order-statistic rules (coordinate_median,
// trimmed_mean) ignore weights by design, sample counts and staleness alike.
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

/// Down-weighting of a stale update in buffered-asynchronous aggregation
/// (FedBuff-style; see fl/async.h): 1 / sqrt(1 + s), the FedBuff default.
/// An update's staleness s counts the global versions that landed between
/// the model it trained from and the aggregation consuming it; sync rounds
/// always aggregate at s = 0, where the weight is exactly 1.
float staleness_weight(std::int64_t staleness);

/// Aggregate `updates` (models::save_state payloads) into a fresh state buffer.
/// `reference` is the current global state — it defines the tensor
/// structure and anchors delta-based rules. All updates must match it.
byte_buffer aggregate_states(const byte_buffer& reference,
                             const std::vector<model_update>& updates,
                             aggregation_rule rule);

}  // namespace pelta::fl
