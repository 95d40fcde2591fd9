// Robust-accuracy evaluation harness.
//
// Mirrors the paper's protocol (§V-C): select correctly-classified test
// samples, run a given attack on each under a given oracle (clear or
// PELTA-shielded), and report the fraction still classified correctly
// afterwards ("astuteness"). Samples are attacked in parallel with
// per-sample deterministic rng streams, so results are independent of the
// thread count.
#pragma once

#include <functional>

#include "attacks/cw.h"
#include "attacks/iterative.h"
#include "attacks/random_uniform.h"
#include "attacks/saga.h"
#include "data/dataset.h"

namespace pelta::attacks {

enum class attack_kind : std::uint8_t { fgsm, pgd, mim, cw, apgd };

const char* attack_name(attack_kind kind);

/// Table II parameter block (one struct drives every attack).
struct suite_params {
  float eps = 0.031f;
  float eps_step = 0.00155f;
  std::int64_t pgd_steps = 20;
  float mim_mu = 1.0f;
  std::int64_t apgd_queries = 100;   ///< paper: 5e3; scaled for the CPU simulator
  std::int64_t apgd_restarts = 1;
  float apgd_rho = 0.75f;
  float cw_confidence = 50.0f;
  float cw_step = 0.00155f;
  std::int64_t cw_steps = 30;
  float saga_alpha_k = 2.0e-4f;      ///< paper's raw-scale α (Table II record)
  float saga_alpha_k_sim = 0.5f;     ///< balanced effective α under unit-scale terms
  float saga_eps_step = 0.0031f;
  std::int64_t saga_steps = 20;
};

/// Paper presets (Table II): CIFAR-10/CIFAR-100 block and ImageNet block.
suite_params table2_cifar_params();
suite_params table2_imagenet_params();
/// Preset for one of our dataset names ("cifar10_like", …).
suite_params params_for_dataset(const std::string& dataset_name);

/// Builds a fresh oracle per evaluated sample (thread isolation). The seed
/// parameterizes any randomized substitute machinery.
using oracle_factory = std::function<std::unique_ptr<gradient_oracle>(std::uint64_t seed)>;

oracle_factory clear_oracle_factory(const models::model& m);
oracle_factory shielded_oracle_factory(const models::model& m);

struct robust_eval {
  float robust_accuracy = 0.0f;   ///< higher favors the defender
  std::int64_t samples = 0;
  std::int64_t attack_successes = 0;
  double mean_queries = 0.0;
};

/// Indices of up to `max_samples` test samples the model classifies
/// correctly (the paper's candidate pool; robust accuracy starts at 100%).
std::vector<std::int64_t> correctly_classified_indices(const models::model& m,
                                                       const data::dataset& ds,
                                                       std::int64_t max_samples);

/// Run one attack kind on one sample with the Table II parameters. The only
/// attack_kind switch: every single-model harness and the compromised FL
/// client dispatch here. `sample_rng` drives APGD's restarts. `early_stop` = false keeps the
/// iterative attacks and C&W running to their step budget, for callers that
/// judge success on another model than the oracle's.
attack_result run_attack(attack_kind kind, gradient_oracle& oracle, const tensor& x0,
                         std::int64_t label, const suite_params& params, rng& sample_rng,
                         bool early_stop = true);

/// One attacked sample's contribution to a robust_eval.
struct sample_outcome {
  bool success = false;       ///< the attack fooled the judged model
  std::int64_t queries = 0;
};

/// Attack `samples` candidates in parallel and tally the outcomes. The
/// callback owns everything per sample (rng fork, oracle, success check),
/// so results do not depend on the thread count.
robust_eval tally_parallel(std::int64_t samples,
                           const std::function<sample_outcome(std::int64_t)>& attack_sample);

/// Run one attack kind against one model (one Table III cell).
robust_eval evaluate_attack(const models::model& m, const data::dataset& ds, attack_kind kind,
                            const suite_params& params, const oracle_factory& factory,
                            std::int64_t max_samples, std::uint64_t seed);

/// Random-uniform baseline (Table IV "Random" column).
robust_eval evaluate_random_uniform(const models::model& m, const data::dataset& ds, float eps,
                                    std::int64_t max_samples, std::uint64_t seed);

/// One Table IV row-set: SAGA against the ensemble under a shield setting.
struct saga_eval {
  float vit_robust_accuracy = 0.0f;
  float cnn_robust_accuracy = 0.0f;
  float ensemble_robust_accuracy = 0.0f;  ///< random-selection policy
  std::int64_t samples = 0;
};

saga_eval evaluate_saga(const models::model& vit, const models::model& cnn,
                        const data::dataset& ds, bool shield_vit, bool shield_cnn,
                        const suite_params& params, std::int64_t max_samples, std::uint64_t seed);

}  // namespace pelta::attacks
