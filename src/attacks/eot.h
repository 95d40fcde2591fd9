// Attacks against software input-transformation defenses (§VII study).
//
// Athalye et al. [35] — the same paper the PELTA design confronts in
// §IV-C — give the two standard counters to software defenses:
//
//   * BPDA:  a gradient-shattering transform (quantization, JPEG) is
//            treated as the identity on the backward pass; the gradient is
//            evaluated at the *transformed* point.
//   * EOT:   a randomized transform is attacked in expectation — the
//            attacker averages gradients over several fresh draws of the
//            defense randomness per step.
//
// defended_oracle composes both with any inner oracle, so every pairing in
// the combined-defense bench — {software-only, PELTA-only, both} x
// {single-sample, EOT} — reuses the exact attack implementations of §V-B.
#pragma once

#include "attacks/runner.h"
#include "defenses/defended.h"

namespace pelta::attacks {

/// Wrap `inner` (clear or PELTA-shielded) behind `chain`. Each query draws
/// `eot_samples` transformed copies of the input (one if the chain is
/// deterministic), queries `inner` on each, and returns the averaged
/// gradient / logits — BPDA-identity through the chain, EOT over its
/// randomness. The wrapper's query count tallies real model passes.
std::unique_ptr<gradient_oracle> make_defended_oracle(std::unique_ptr<gradient_oracle> inner,
                                                      const defenses::preprocessor_chain& chain,
                                                      std::int64_t eot_samples,
                                                      std::uint64_t seed);

/// Factory form used by the evaluation harness: `inner_factory` builds the
/// per-sample inner oracle (clear / shielded), then the chain wraps it.
oracle_factory defended_oracle_factory(const oracle_factory& inner_factory,
                                       const defenses::preprocessor_chain& chain,
                                       std::int64_t eot_samples);

struct defended_eval_config {
  attack_kind kind = attack_kind::pgd;
  suite_params params;
  std::int64_t eot_samples = 1;  ///< 1 = plain BPDA; >1 = EOT averaging
  std::int64_t max_samples = 50;
  std::uint64_t seed = 2023;
};

/// Robust accuracy of a defended model (chain + optional PELTA inner
/// oracle). Candidates are test samples the *defended* model classifies
/// correctly; the final success check also runs through the defense, on a
/// fresh per-sample randomness stream (the deployment view).
robust_eval evaluate_attack_defended(const defenses::defended_model& dm, const data::dataset& ds,
                                     const defended_eval_config& config,
                                     const oracle_factory& inner_factory);

}  // namespace pelta::attacks
