// A model behind a preprocessor chain — the deployment unit of the §VII
// "PELTA along with existing software defenses" study.
//
// Classification of a sample runs the chain first (drawing fresh
// randomness per call for randomized stages), optionally repeated with a
// majority vote to stabilize randomized chains. Scoring is per sample:
// accuracy() runs predict_one on each sample, over the pool, under a stream
// forked from the sample index. The defended model is what the
// robust-accuracy harness scores; the attack side (attacks/eot.h) builds
// its BPDA/EOT oracles from the same chain.
#pragma once

#include "defenses/preprocessor.h"
#include "models/model.h"

namespace pelta::defenses {

class defended_model {
public:
  /// `votes` >= 1: number of preprocessed forward passes whose predictions
  /// are majority-voted (ties break toward the smaller class index).
  /// Deterministic chains ignore votes > 1 — every pass is identical.
  defended_model(const models::model& m, const preprocessor_chain& chain, std::int64_t votes = 1);

  const models::model& base() const { return *model_; }
  const preprocessor_chain& chain() const { return *chain_; }
  std::int64_t votes() const { return votes_; }

  /// Predicted class of one [C,H,W] image; `gen` feeds the chain.
  std::int64_t predict_one(const tensor& image, rng& gen) const;

  /// Fraction of `images` [N,C,H,W] matching `labels` [N]; per-sample rng
  /// streams forked from `seed` keep the result thread-count independent.
  float accuracy(const tensor& images, const tensor& labels, std::uint64_t seed) const;

private:
  const models::model* model_;
  const preprocessor_chain* chain_;
  std::int64_t votes_;
};

/// Standard chains used by the combined-defense bench and tests.
preprocessor_chain make_chain(const std::string& spec);  ///< "quantize", "jpeg", "resize", "noise", "quantize+jpeg", ... ("" = empty)

}  // namespace pelta::defenses
