#include "defenses/defended.h"

#include <algorithm>
#include <atomic>
#include <sstream>

#include "defenses/encoding.h"
#include "defenses/quantization.h"
#include "defenses/randomization.h"
#include "tensor/parallel.h"

namespace pelta::defenses {

defended_model::defended_model(const models::model& m, const preprocessor_chain& chain,
                               std::int64_t votes)
    : model_{&m}, chain_{&chain}, votes_{votes} {
  PELTA_CHECK_MSG(votes >= 1, "votes " << votes << " must be >= 1");
}

std::int64_t defended_model::predict_one(const tensor& image, rng& gen) const {
  const std::int64_t rounds = chain_->randomized() ? votes_ : 1;
  if (rounds == 1) return models::predict_one(*model_, chain_->apply(image, gen));

  std::vector<std::int64_t> counts(static_cast<std::size_t>(model_->num_classes()), 0);
  for (std::int64_t v = 0; v < rounds; ++v)
    ++counts[static_cast<std::size_t>(models::predict_one(*model_, chain_->apply(image, gen)))];
  std::int64_t best = 0;
  for (std::int64_t c = 1; c < model_->num_classes(); ++c)
    if (counts[static_cast<std::size_t>(c)] > counts[static_cast<std::size_t>(best)]) best = c;
  return best;
}

float defended_model::accuracy(const tensor& images, const tensor& labels,
                               std::uint64_t seed) const {
  PELTA_CHECK_MSG(images.ndim() == 4 && images.size(0) == labels.numel(),
                  "accuracy expects [N,C,H,W] images with matching [N] labels");
  const std::int64_t n = images.size(0);
  const std::int64_t stride = images.numel() / n;
  const rng root{seed};
  // Lock-free on purpose (lock discipline, docs/ARCHITECTURE.md): these are
  // commutative-sum atomics incremented from parallel_for chunks — order
  // cannot affect the integer totals, so no mutex / PELTA_GUARDED_BY is
  // needed and fetch-add contention is the only synchronization.
  std::atomic<std::int64_t> correct{0};
  parallel_for(n, [&](std::int64_t i) {
    rng gen = root.fork(static_cast<std::uint64_t>(i));
    tensor image{shape_t{images.size(1), images.size(2), images.size(3)}};
    const auto src = images.data();
    std::copy(src.begin() + i * stride, src.begin() + (i + 1) * stride, image.data().begin());
    if (predict_one(image, gen) == static_cast<std::int64_t>(labels[i]))
      correct.fetch_add(1, std::memory_order_relaxed);
  });
  return static_cast<float>(correct.load()) / static_cast<float>(n);
}

preprocessor_chain make_chain(const std::string& spec) {
  preprocessor_chain chain;
  if (spec.empty() || spec == "none") return chain;
  std::istringstream in{spec};
  std::string part;
  while (std::getline(in, part, '+')) {
    if (part == "quantize")
      chain.add(std::make_unique<bit_depth_quantizer>(4));
    else if (part == "jpeg")
      chain.add(std::make_unique<jpeg_codec>(40));
    else if (part == "resize")
      chain.add(std::make_unique<random_resize_pad>(3));
    else if (part == "noise")
      chain.add(std::make_unique<gaussian_noise>(0.02f));
    else
      throw error{"unknown defense spec part: " + part};
  }
  return chain;
}

}  // namespace pelta::defenses
