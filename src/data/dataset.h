// Synthetic structured image datasets.
//
// Substitution (documented in DESIGN.md §4): the paper evaluates on
// CIFAR-10, CIFAR-100 and ImageNet, which are not available offline. We
// generate per-class smooth templates (low-resolution noise bilinearly
// upsampled) plus i.i.d. pixel noise and brightness jitter. Template
// separation is calibrated so that (a) models train to high clean accuracy
// and (b) unshielded iterative attacks inside the paper's ε-ball succeed —
// the same operating point as the paper's benchmarks.
#pragma once

#include <string>
#include <vector>

#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace pelta::data {

struct dataset_config {
  std::string name;
  std::int64_t classes = 10;
  std::int64_t channels = 3;
  std::int64_t image_size = 16;
  std::int64_t train_per_class = 200;
  std::int64_t test_per_class = 40;
  /// Smooth (low-frequency) class pattern — the "robust" feature carrying
  /// most of the clean-accuracy signal.
  float template_amp = 0.10f;
  /// High-frequency ±1 per-pixel class signature — a "non-robust" feature
  /// (Ilyas et al.): highly discriminative, yet entirely flippable inside
  /// the paper's ε-ball, which is what lets gradient attacks succeed
  /// against unshielded models at the paper's operating point. CNNs (texture
  /// bias) key on this band.
  float signature_amp = 0.02f;
  /// Block-constant ±1 per-class signature at `block_size` granularity — the
  /// low-frequency non-robust feature the ViT family keys on. Carrying the
  /// two signatures in disjoint frequency bands reproduces the poor
  /// CNN↔ViT adversarial transfer the paper's ensemble defense relies on
  /// (Mahmood et al. [44]).
  float block_signature_amp = 0.02f;
  std::int64_t block_size = 4;
  float noise_std = 0.04f;        ///< per-pixel Gaussian noise
  float brightness_jitter = 0.02f;///< per-image uniform brightness shift
  std::uint64_t seed = 42;
};

/// Table II dataset presets (scaled-down analogues; ε values follow the paper).
dataset_config cifar10_like();
dataset_config cifar100_like();
dataset_config imagenet_like();

struct batch {
  tensor images;  ///< [N,C,H,W] in [0,1]
  tensor labels;  ///< [N] class indices as floats
};

class dataset {
public:
  explicit dataset(const dataset_config& config);

  const dataset_config& config() const { return config_; }
  const tensor& template_of(std::int64_t cls) const;

  const tensor& train_images() const { return train_.images; }
  const tensor& train_labels() const { return train_.labels; }
  const tensor& test_images() const { return test_.images; }
  const tensor& test_labels() const { return test_.labels; }
  std::int64_t train_size() const { return train_.labels.numel(); }
  std::int64_t test_size() const { return test_.labels.numel(); }

  /// Single image [C,H,W] / label from the given split.
  tensor test_image(std::int64_t i) const;
  std::int64_t test_label(std::int64_t i) const;

  /// Mini-batch of train images at the given indices.
  batch gather_train(const std::vector<std::int64_t>& indices) const;

  /// Fresh i.i.d. sample from class `cls` (for property tests / extra eval).
  tensor sample_image(rng& gen, std::int64_t cls) const;

private:
  batch generate_split(rng& gen, std::int64_t per_class) const;

  dataset_config config_;
  std::vector<tensor> templates_;  // per class [C,H,W]
  batch train_;
  batch test_;
};

}  // namespace pelta::data
