// PELTA public API.
//
// defended_model bundles a classifier with a TEE enclave and applies the
// PELTA shield on every pass: the quantities Algorithm 1 selects live in
// the enclave, inference still works end-to-end, and any attacker probe of
// the device memory goes through the masked view.
//
//   auto defended = pelta::defended_model{models::make_vit_b16_sim(task)};
//   defended.classify(image);                  // shielded inference
//   auto cost = defended.measure_shield_cost(image, /*with_gradients=*/true);
//   cost.tee_bytes / cost.shielded_portion     // Table I quantities
#pragma once

#include <memory>

#include "attacks/runner.h"
#include "models/model.h"
#include "shield/masked_view.h"
#include "tee/enclave.h"

namespace pelta {

/// Bare library version as configured by the build (major.minor.patch).
const char* version_string();

class defended_model {
public:
  explicit defended_model(std::unique_ptr<models::model> m,
                          std::int64_t enclave_capacity = tee::enclave::k_default_capacity);

  models::model& model() { return *model_; }
  const models::model& model() const { return *model_; }
  tee::enclave& enclave() { return enclave_; }
  const tee::enclave& enclave() const { return enclave_; }

  /// Shielded inference on one [C,H,W] image: the forward pass runs, the
  /// shield places the frontier quantities into the enclave, and the
  /// prediction (from the clear, deep part of the model) is returned.
  std::int64_t classify(const tensor& image);

  /// Table I quantities measured on a probe input. `with_gradients` models
  /// the FL training rounds, where the device also back-propagates (the
  /// paper's worst case: activations and gradients are not flushed).
  struct shield_cost {
    std::int64_t tee_bytes = 0;           ///< enclave memory used by the shield
    std::int64_t bytes_activations = 0;
    std::int64_t bytes_gradients = 0;
    std::int64_t bytes_parameters = 0;
    std::int64_t masked_parameters = 0;   ///< masked scalar parameters
    std::int64_t total_parameters = 0;
    double shielded_portion = 0.0;        ///< masked / total parameters
    std::int64_t masked_transforms = 0;
    std::int64_t jacobian_records = 0;
  };
  shield_cost measure_shield_cost(const tensor& probe_image, bool with_gradients);

  /// The attacker's oracle against this defended model (upsampling/BPDA).
  std::unique_ptr<attacks::gradient_oracle> attacker_oracle(std::uint64_t seed);

private:
  std::unique_ptr<models::model> model_;
  tee::enclave enclave_;
};

/// Library version string.
const char* version();

}  // namespace pelta
