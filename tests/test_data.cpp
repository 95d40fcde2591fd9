// Synthetic dataset substrate: determinism, structure, calibration.
#include <gtest/gtest.h>

#include <set>

#include "data/dataset.h"
#include "models/mlp.h"
#include "models/trainer.h"
#include "tensor/ops.h"

namespace pelta::data {
namespace {

dataset_config tiny_config() {
  dataset_config c = cifar10_like();
  c.classes = 4;
  c.train_per_class = 10;
  c.test_per_class = 5;
  return c;
}

TEST(DatasetConfig, Presets) {
  EXPECT_EQ(cifar10_like().classes, 10);
  EXPECT_EQ(cifar10_like().image_size, 16);
  EXPECT_GT(cifar100_like().classes, cifar10_like().classes);
  EXPECT_LT(cifar100_like().template_amp, cifar10_like().template_amp);
  EXPECT_EQ(imagenet_like().image_size, 32);
}

TEST(Dataset, ShapesAndLabels) {
  const dataset ds{tiny_config()};
  EXPECT_EQ(ds.train_images().shape(), (shape_t{40, 3, 16, 16}));
  EXPECT_EQ(ds.train_labels().shape(), (shape_t{40}));
  EXPECT_EQ(ds.test_size(), 20);
  for (std::int64_t i = 0; i < ds.test_size(); ++i) {
    EXPECT_GE(ds.test_label(i), 0);
    EXPECT_LT(ds.test_label(i), 4);
  }
}

TEST(Dataset, PixelsInUnitRange) {
  const dataset ds{tiny_config()};
  for (float v : ds.train_images().data()) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
  }
}

TEST(Dataset, DeterministicAcrossConstructions) {
  const dataset a{tiny_config()};
  const dataset b{tiny_config()};
  for (std::int64_t i = 0; i < 100; ++i)
    EXPECT_FLOAT_EQ(a.train_images()[i], b.train_images()[i]);
}

TEST(Dataset, SeedChangesData) {
  dataset_config c1 = tiny_config();
  dataset_config c2 = tiny_config();
  c2.seed = c1.seed + 1;
  const dataset a{c1}, b{c2};
  bool any_diff = false;
  for (std::int64_t i = 0; i < 200 && !any_diff; ++i)
    any_diff = a.train_images()[i] != b.train_images()[i];
  EXPECT_TRUE(any_diff);
}

TEST(Dataset, TemplatesAreSeparated) {
  const dataset ds{tiny_config()};
  const auto& cfg = ds.config();
  for (std::int64_t a = 0; a < cfg.classes; ++a)
    for (std::int64_t b = a + 1; b < cfg.classes; ++b) {
      const tensor diff = ops::sub(ds.template_of(a), ds.template_of(b));
      // Distinct smooth patterns: l∞ separation on the order of template_amp.
      EXPECT_GT(ops::norm_linf(diff), cfg.template_amp * 0.3f) << a << " vs " << b;
    }
}

TEST(Dataset, SamplesClusterAroundTemplate) {
  const dataset ds{tiny_config()};
  rng g{5};
  const tensor s = ds.sample_image(g, 2);
  const tensor diff = ops::sub(s, ds.template_of(2));
  // noise_std + brightness jitter bound (loose, 6 sigma)
  EXPECT_LT(ops::norm_linf(diff),
            6.0f * ds.config().noise_std + ds.config().brightness_jitter + 1e-3f);
}

TEST(Dataset, TestImageMatchesBatchRow) {
  const dataset ds{tiny_config()};
  const tensor img = ds.test_image(7);
  EXPECT_EQ(img.shape(), (shape_t{3, 16, 16}));
  auto all = ds.test_images().data();
  for (std::int64_t i = 0; i < img.numel(); ++i)
    EXPECT_FLOAT_EQ(img[i], all[7 * img.numel() + i]);
  EXPECT_THROW(ds.test_image(ds.test_size()), error);
}

TEST(Dataset, GatherTrainSelectsRows) {
  const dataset ds{tiny_config()};
  const batch b = ds.gather_train({0, 39, 5});
  EXPECT_EQ(b.images.shape(), (shape_t{3, 3, 16, 16}));
  EXPECT_FLOAT_EQ(b.labels[0], ds.train_labels()[0]);
  EXPECT_FLOAT_EQ(b.labels[1], ds.train_labels()[39]);
  EXPECT_THROW(ds.gather_train({99}), error);
}

// The mini-batch stream over the train split: models::shuffled_order gives
// each epoch's visit order, models::train_epochs slices it into batches.
TEST(BatchIterator, CoversEpochWithoutRepeats) {
  dataset_config c = tiny_config();
  c.classes = 2;
  c.train_per_class = 5;
  const dataset ds{c};  // 10 train samples
  models::mlp_config mc;
  mc.classes = 2;
  mc.hidden = {4};
  models::mlp_model m{mc};
  models::train_config tc;
  tc.epochs = 1;
  tc.batch_size = 3;
  tc.seed = 1;

  std::int64_t batches = 0;
  std::set<std::int64_t> seen;
  models::train_epochs(m, ds, tc, models::shuffled_order(ds.train_size(), tc.seed),
                       [&](batch&, const std::vector<std::int64_t>& indices) {
                         ++batches;
                         seen.insert(indices.begin(), indices.end());
                       });
  EXPECT_EQ(batches, 4);
  EXPECT_EQ(seen.size(), 10u);
}

TEST(BatchIterator, ReshufflesBetweenEpochs) {
  const models::epoch_order order = models::shuffled_order(64, 2);
  const auto e1 = order();
  const auto e2 = order();
  EXPECT_NE(e1, e2);  // astronomically unlikely to coincide
}

TEST(Dataset, ClassBalance) {
  const dataset ds{tiny_config()};
  std::vector<int> counts(4, 0);
  for (std::int64_t i = 0; i < ds.train_size(); ++i)
    counts[static_cast<std::size_t>(ds.train_labels()[i])]++;
  for (int c : counts) EXPECT_EQ(c, 10);
}

}  // namespace
}  // namespace pelta::data
