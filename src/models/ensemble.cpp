#include "models/ensemble.h"

namespace pelta::models {

std::int64_t random_selection_ensemble::classify(const tensor& image, rng& gen) const {
  const model& chosen = gen.bernoulli(0.5) ? *first_ : *second_;
  return predict_one(chosen, image);
}

float random_selection_ensemble::accuracy(const tensor& images, const tensor& labels,
                                          rng& gen) const {
  PELTA_CHECK(images.ndim() == 4 && labels.numel() == images.size(0));
  const std::int64_t n = images.size(0);
  const std::int64_t c = images.size(1), h = images.size(2), w = images.size(3);
  std::int64_t correct = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    tensor img{shape_t{c, h, w}};
    auto src = images.data();
    std::copy(src.begin() + i * c * h * w, src.begin() + (i + 1) * c * h * w,
              img.data().begin());
    if (classify(img, gen) == static_cast<std::int64_t>(labels[i])) ++correct;
  }
  return static_cast<float>(correct) / static_cast<float>(n);
}

}  // namespace pelta::models
