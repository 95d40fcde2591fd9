// Model checkpointing: durable state round-trips, integrity and
// architecture checks.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "models/checkpoint.h"
#include "models/mlp.h"
#include "models/trainer.h"
#include "models/zoo.h"
#include "tensor/ops.h"

namespace pelta::models {
namespace {

std::string temp_path(const char* stem) {
  return ::testing::TempDir() + "/" + stem + ".peltackp";
}

struct fixture {
  data::dataset ds;
  std::unique_ptr<models::model> vit;
  std::unique_ptr<models::model> resnet;  // carries batch-norm buffers

  fixture()
      : ds{[] {
          data::dataset_config c = data::cifar10_like();
          c.classes = 4;
          c.train_per_class = 40;
          c.test_per_class = 15;
          return c;
        }()} {
    models::task_spec task;
    task.classes = 4;
    vit = models::make_vit_b16_sim(task);
    resnet = models::make_resnet56_sim(task);
    models::train_config tc;
    tc.epochs = 3;
    tc.batch_size = 16;
    models::train_model(*vit, ds, tc);
    models::train_model(*resnet, ds, tc);
  }

  static const fixture& get() {
    static fixture f;
    return f;
  }
};

TEST(Checkpoint, RoundTripPreservesEveryPrediction) {
  const auto& f = fixture::get();
  const std::string path = temp_path("vit_roundtrip");
  save_checkpoint(*f.vit, path);

  models::task_spec task;
  task.classes = 4;
  task.seed = 999;  // different init — must be fully overwritten
  auto fresh = models::make_vit_b16_sim(task);
  load_checkpoint(*fresh, path);

  const tensor before = predict(*f.vit, f.ds.test_images());
  const tensor after = predict(*fresh, f.ds.test_images());
  for (std::int64_t i = 0; i < before.numel(); ++i) ASSERT_FLOAT_EQ(after[i], before[i]);
}

TEST(Checkpoint, CarriesBatchnormRunningStatistics) {
  const auto& f = fixture::get();
  const std::string path = temp_path("resnet_bn");
  save_checkpoint(*f.resnet, path);

  models::task_spec task;
  task.classes = 4;
  task.seed = 321;
  auto fresh = models::make_resnet56_sim(task);
  load_checkpoint(*fresh, path);

  const auto src = f.resnet->batchnorm_buffers();
  const auto dst = fresh->batchnorm_buffers();
  ASSERT_EQ(src.size(), dst.size());
  ASSERT_FALSE(src.empty());
  for (std::size_t i = 0; i < src.size(); ++i)
    for (std::int64_t j = 0; j < src[i]->running_mean.numel(); ++j) {
      ASSERT_FLOAT_EQ(dst[i]->running_mean[j], src[i]->running_mean[j]);
      ASSERT_FLOAT_EQ(dst[i]->running_var[j], src[i]->running_var[j]);
    }
}

TEST(Checkpoint, HeaderNameIsReadableWithoutLoading) {
  const auto& f = fixture::get();
  const std::string path = temp_path("name_probe");
  save_checkpoint(*f.vit, path);
  EXPECT_EQ(checkpoint_model_name(path), f.vit->name());
}

TEST(Checkpoint, NameMismatchThrowsUnlessIgnored) {
  const auto& f = fixture::get();
  const std::string path = temp_path("vit_for_mlp");
  save_checkpoint(*f.vit, path);

  models::task_spec task;
  task.classes = 4;
  auto other = models::make_vit_b16_sim(task);
  // same architecture registered under a different label
  const std::string renamed = temp_path("renamed");
  save_checkpoint(*other, renamed);

  mlp_config mc;
  mc.classes = 4;
  mlp_model mlp{mc};
  EXPECT_THROW(load_checkpoint(mlp, path), checkpoint_error);  // name and shape both differ
}

TEST(Checkpoint, ArchitectureMismatchThrowsEvenWithIgnoreName) {
  const auto& f = fixture::get();
  const std::string path = temp_path("arch_mismatch");
  save_checkpoint(*f.vit, path);
  mlp_config mc;
  mc.classes = 4;
  mlp_model mlp{mc};
  // The codec's shape mismatch surfaces as checkpoint_error, not plain error.
  EXPECT_THROW(load_checkpoint(mlp, path, /*ignore_name=*/true), checkpoint_error);
}

TEST(Checkpoint, TruncationIsDetected) {
  const auto& f = fixture::get();
  const std::string path = temp_path("truncated");
  save_checkpoint(*f.vit, path);

  std::ifstream in{path, std::ios::binary};
  std::string bytes{std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
  in.close();
  bytes.resize(bytes.size() / 2);
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();

  models::task_spec task;
  task.classes = 4;
  auto fresh = models::make_vit_b16_sim(task);
  EXPECT_THROW(load_checkpoint(*fresh, path), checkpoint_error);
}

TEST(Checkpoint, BitFlipInPayloadIsDetected) {
  const auto& f = fixture::get();
  const std::string path = temp_path("corrupted");
  save_checkpoint(*f.vit, path);

  std::fstream io{path, std::ios::binary | std::ios::in | std::ios::out};
  io.seekp(200);  // somewhere inside the payload
  char b = 0;
  io.seekg(200);
  io.read(&b, 1);
  b = static_cast<char>(b ^ 0x40);
  io.seekp(200);
  io.write(&b, 1);
  io.close();

  models::task_spec task;
  task.classes = 4;
  auto fresh = models::make_vit_b16_sim(task);
  EXPECT_THROW(load_checkpoint(*fresh, path), checkpoint_error);
}

TEST(Checkpoint, GarbageFileIsRejected) {
  const std::string path = temp_path("garbage");
  std::ofstream out{path, std::ios::binary};
  out << "definitely not a checkpoint";
  out.close();
  models::task_spec task;
  task.classes = 4;
  auto fresh = models::make_vit_b16_sim(task);
  EXPECT_THROW(load_checkpoint(*fresh, path), checkpoint_error);
  EXPECT_THROW((void)checkpoint_model_name(path), checkpoint_error);
}

// A rejected model-state payload leaves the model exactly as it was: every
// tensor and batch-norm buffer is decoded and checked, and the trailing
// bytes counted, before the first value is replaced. The source differs
// from the target in every parameter and BN buffer, so a half-applied load
// shows in the target's own save_state bytes.
TEST(Checkpoint, RejectedStateLeavesEveryParameterAndBatchnormByteUnchanged) {
  models::task_spec task;
  task.classes = 4;
  task.seed = 11;
  auto target = models::make_resnet56_sim(task);
  task.seed = 12;
  auto source = models::make_resnet56_sim(task);
  for (ad::batchnorm_stats* s : source->batchnorm_buffers()) {
    s->running_mean.fill_(0.25f);
    s->running_var.fill_(2.0f);
  }
  const byte_buffer before = save_state(*target);

  byte_buffer trailing = save_state(*source);
  trailing.push_back(0);
  EXPECT_THROW(load_state(*target, trailing), error);
  EXPECT_EQ(save_state(*target), before) << "trailing byte";

  // Parameters and every BN buffer but the last well-formed; the last
  // running variance one channel too wide.
  byte_buffer wrong_bn = source->params().save_values();
  const auto stats = source->batchnorm_buffers();
  ASSERT_FALSE(stats.empty());
  for (std::size_t i = 0; i < stats.size(); ++i) {
    serialize_tensor(stats[i]->running_mean, wrong_bn);
    if (i + 1 < stats.size())
      serialize_tensor(stats[i]->running_var, wrong_bn);
    else
      serialize_tensor(tensor::ones({stats[i]->running_var.numel() + 1}), wrong_bn);
  }
  EXPECT_THROW(load_state(*target, wrong_bn), error);
  EXPECT_EQ(save_state(*target), before) << "wrong batch-norm shape";

  // The well-formed payload still installs.
  load_state(*target, save_state(*source));
  EXPECT_EQ(save_state(*target), save_state(*source));
}

TEST(Checkpoint, MissingFileThrows) {
  models::task_spec task;
  task.classes = 4;
  auto fresh = models::make_vit_b16_sim(task);
  EXPECT_THROW(load_checkpoint(*fresh, "/nonexistent/dir/x.peltackp"), checkpoint_error);
  EXPECT_THROW(save_checkpoint(*fresh, "/nonexistent/dir/x.peltackp"), checkpoint_error);
}

}  // namespace
}  // namespace pelta::models
