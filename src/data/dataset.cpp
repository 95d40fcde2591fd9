#include "data/dataset.h"

#include <algorithm>

#include "tensor/conv.h"
#include "tensor/ops.h"

namespace pelta::data {

dataset_config cifar10_like() {
  dataset_config c;
  c.name = "cifar10_like";
  c.classes = 10;
  c.image_size = 16;
  c.train_per_class = 200;
  c.test_per_class = 40;
  c.template_amp = 0.10f;
  c.signature_amp = 0.02f;
  c.noise_std = 0.04f;
  c.seed = 1001;
  return c;
}

dataset_config cifar100_like() {
  dataset_config c;
  c.name = "cifar100_like";
  c.classes = 20;             // scaled-down analogue of the 100-class regime:
  c.image_size = 16;          // more classes, tighter templates than cifar10_like
  c.train_per_class = 120;
  c.test_per_class = 30;
  c.template_amp = 0.08f;
  c.signature_amp = 0.02f;
  c.noise_std = 0.04f;
  c.seed = 1002;
  return c;
}

dataset_config imagenet_like() {
  dataset_config c;
  c.name = "imagenet_like";
  c.classes = 20;
  c.image_size = 32;          // larger images, paper uses ε = 0.062 here
  c.train_per_class = 100;
  c.test_per_class = 25;
  c.template_amp = 0.10f;
  c.signature_amp = 0.03f;
  c.noise_std = 0.05f;
  c.seed = 1003;
  return c;
}

namespace {

// Smooth unit-l∞ field: low-resolution Gaussian noise, bilinearly upsampled.
tensor smooth_field(rng& gen, std::int64_t channels, std::int64_t size) {
  const std::int64_t low = std::max<std::int64_t>(2, size / 4);
  tensor coarse = tensor::randn(gen, {channels, low, low});
  tensor up = ops::upsample_bilinear(coarse, size / low);
  const float peak = ops::norm_linf(up);
  if (peak > 0.0f) up.mul_(1.0f / peak);
  return up;  // [C, size, size], values in [-1, 1]
}

}  // namespace

dataset::dataset(const dataset_config& config) : config_{config} {
  PELTA_CHECK_MSG(config.classes >= 2, "dataset needs >= 2 classes");
  rng gen{config.seed};

  templates_.reserve(static_cast<std::size_t>(config.classes));
  for (std::int64_t c = 0; c < config.classes; ++c) {
    tensor field = smooth_field(gen, config.channels, config.image_size);
    // template = mid-grey + smooth pattern + per-pixel hf signature
    //          + block-constant lf signature
    tensor t = ops::add_scalar(ops::mul_scalar(field, config.template_amp), 0.5f);
    for (float& v : t.data())
      v += config.signature_amp * (gen.bernoulli(0.5) ? 1.0f : -1.0f);
    const std::int64_t s = config.image_size, bs = config.block_size, nb = s / bs;
    for (std::int64_t ch = 0; ch < config.channels; ++ch)
      for (std::int64_t by = 0; by < nb; ++by)
        for (std::int64_t bx = 0; bx < nb; ++bx) {
          const float sign = gen.bernoulli(0.5) ? 1.0f : -1.0f;
          for (std::int64_t dy = 0; dy < bs; ++dy)
            for (std::int64_t dx = 0; dx < bs; ++dx)
              t.at(ch, by * bs + dy, bx * bs + dx) += config.block_signature_amp * sign;
        }
    templates_.push_back(std::move(t));
  }

  rng train_gen = gen.fork(1);
  rng test_gen = gen.fork(2);
  train_ = generate_split(train_gen, config.train_per_class);
  test_ = generate_split(test_gen, config.test_per_class);
}

const tensor& dataset::template_of(std::int64_t cls) const {
  PELTA_CHECK_MSG(cls >= 0 && cls < config_.classes, "class " << cls << " out of range");
  return templates_[static_cast<std::size_t>(cls)];
}

batch dataset::generate_split(rng& gen, std::int64_t per_class) const {
  const std::int64_t n = per_class * config_.classes;
  const std::int64_t c = config_.channels, s = config_.image_size;
  batch out{tensor{shape_t{n, c, s, s}}, tensor{shape_t{n}}};
  std::int64_t row = 0;
  for (std::int64_t cls = 0; cls < config_.classes; ++cls) {
    for (std::int64_t k = 0; k < per_class; ++k, ++row) {
      tensor img = sample_image(gen, cls);
      auto src = img.data();
      auto dst = out.images.data();
      std::copy(src.begin(), src.end(), dst.begin() + row * c * s * s);
      out.labels[row] = static_cast<float>(cls);
    }
  }
  return out;
}

tensor dataset::sample_image(rng& gen, std::int64_t cls) const {
  const tensor& tmpl = template_of(cls);
  tensor img = tmpl;
  const float shift = gen.uniform(-config_.brightness_jitter, config_.brightness_jitter);
  for (float& x : img.data()) x += shift + gen.normal(0.0f, config_.noise_std);
  img.clamp_(0.0f, 1.0f);
  return img;
}

tensor dataset::test_image(std::int64_t i) const {
  PELTA_CHECK_MSG(i >= 0 && i < test_size(), "test index " << i << " out of range");
  const std::int64_t c = config_.channels, s = config_.image_size;
  tensor img{shape_t{c, s, s}};
  auto src = test_.images.data();
  std::copy(src.begin() + i * c * s * s, src.begin() + (i + 1) * c * s * s, img.data().begin());
  return img;
}

std::int64_t dataset::test_label(std::int64_t i) const {
  PELTA_CHECK_MSG(i >= 0 && i < test_size(), "test index " << i << " out of range");
  return static_cast<std::int64_t>(test_.labels[i]);
}

batch dataset::gather_train(const std::vector<std::int64_t>& indices) const {
  const std::int64_t n = static_cast<std::int64_t>(indices.size());
  const std::int64_t c = config_.channels, s = config_.image_size;
  batch out{tensor{shape_t{n, c, s, s}}, tensor{shape_t{n}}};
  auto src = train_.images.data();
  auto dst = out.images.data();
  for (std::int64_t row = 0; row < n; ++row) {
    const std::int64_t i = indices[static_cast<std::size_t>(row)];
    PELTA_CHECK_MSG(i >= 0 && i < train_size(), "train index " << i << " out of range");
    std::copy(src.begin() + i * c * s * s, src.begin() + (i + 1) * c * s * s,
              dst.begin() + row * c * s * s);
    out.labels[row] = train_.labels[i];
  }
  return out;
}

}  // namespace pelta::data
