// Random-selection ensemble (§V-A2): two models (a ViT and a BiT in the
// paper) where, per sample, one member is selected uniformly at random to
// classify the input (Srisakaokul et al.'s MULDEF policy). Samples are
// classified one at a time: accuracy() draws every member choice from the
// caller's stream, in sample order.
#pragma once

#include "models/model.h"

namespace pelta::models {

class random_selection_ensemble {
public:
  /// Non-owning: both members must outlive the ensemble.
  random_selection_ensemble(model& first, model& second) : first_{&first}, second_{&second} {}

  /// Classify one [C,H,W] image with a uniformly selected member.
  std::int64_t classify(const tensor& image, rng& gen) const;

  /// Accuracy of the random-selection policy over a test set.
  float accuracy(const tensor& images, const tensor& labels, rng& gen) const;

private:
  model* first_;
  model* second_;
};

}  // namespace pelta::models
