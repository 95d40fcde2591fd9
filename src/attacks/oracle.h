// Gradient oracles: what the attacker can extract from its local model copy.
//
//   * clear_oracle    — open white box: the true ∇ₓL (no defense).
//   * shielded_oracle — PELTA in place: the true gradient chain stops at the
//     enclave, so the oracle returns the BPDA-style substitute the paper's
//     attacker uses (§IV-C, §V-B): the adjoint δ_{L+1} of the shallowest
//     clear layer lifted to input shape by a random-uniform initialized
//     transposed convolution.
//
// Both oracles also expose logits (the deep, clear part of the model) and
// support custom objectives via a seed on the logits (used by C&W), plus
// the ViT attention-rollout saliency needed by SAGA's φᵥ term (Eq. 4).
#pragma once

#include <memory>

#include "models/model.h"
#include "shield/masked_view.h"

namespace pelta::attacks {

struct oracle_result {
  tensor gradient;  ///< (substitute) gradient w.r.t. the input, [C,H,W]
  tensor logits;    ///< [classes] — the clear model head
  float loss = 0.0f;
  std::int64_t predicted = -1;
};

class gradient_oracle {
public:
  virtual ~gradient_oracle() = default;

  /// Gradient of the cross-entropy loss at (image, label).
  virtual oracle_result query(const tensor& image, std::int64_t label) = 0;

  /// Gradient of <seed, logits> w.r.t. the input — arbitrary logit-space
  /// objectives (C&W). `seed` has shape [classes].
  virtual oracle_result query_logit_seed(const tensor& image, const tensor& seed) = 0;

  /// ViT attention-rollout saliency [C,H,W] for SAGA's φᵥ (Eq. 4); throws
  /// for models without attention blocks.
  virtual tensor attention_saliency(const tensor& image) = 0;

  /// Re-randomize substitute machinery (APGD restarts re-draw the
  /// upsampling kernel); no-op for the clear oracle.
  virtual void reset(rng& /*gen*/) {}

  /// Number of forward/backward queries issued so far.
  std::int64_t queries() const { return queries_; }

protected:
  std::int64_t queries_ = 0;
};

/// Open white box (non-shielded setting of Tables III/IV).
std::unique_ptr<gradient_oracle> make_clear_oracle(const models::model& m);

/// PELTA-shielded white box. `kernel_seed` draws the upsampling kernel.
/// When `enclave` is non-null every pass's masked tensors are stored into
/// it (Table I worst-case accounting); otherwise a report-only shield runs.
std::unique_ptr<gradient_oracle> make_shielded_oracle(const models::model& m,
                                                      std::uint64_t kernel_seed,
                                                      tee::enclave* enclave = nullptr);

/// Same, but Select() masks the first `depth` input-dependent transforms
/// instead of the model's default frontier — the shield-depth ablation.
std::unique_ptr<gradient_oracle> make_shielded_oracle_depth(const models::model& m,
                                                            std::int64_t depth,
                                                            std::uint64_t kernel_seed,
                                                            tee::enclave* enclave = nullptr);

/// Related-work baseline (§II: DarkneTZ / PPFL / GradSec): parameters and
/// their gradients are enclave-resident, but ∇ₓL is not — this oracle reads
/// the true input gradient straight through the masked view, demonstrating
/// that the policy does not mitigate evasion attacks.
std::unique_ptr<gradient_oracle> make_param_shield_oracle(const models::model& m,
                                                          tee::enclave* enclave = nullptr);

/// Attention rollout over a batch-1 ViT forward pass (shared with SAGA):
/// R = Π_l row_norm(0.5·mean_h W_att + 0.5·I); saliency = class-token row,
/// reshaped to the patch grid, bilinearly upsampled to pixels, normalized
/// to unit mean, broadcast over channels.
tensor attention_rollout(const models::model& m, const ad::graph& g, const shape_t& image_shape);

}  // namespace pelta::attacks
