// Model zoo: construction, forward shapes, frontier declarations, training.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include "data/dataset.h"
#include "models/ensemble.h"
#include "models/trainer.h"
#include "models/zoo.h"
#include "tensor/ops.h"
#include "tensor/parallel.h"

namespace pelta::models {
namespace {

task_spec tiny_task() {
  task_spec t;
  t.image_size = 16;
  t.channels = 3;
  t.classes = 4;
  t.seed = 3;
  return t;
}

data::dataset tiny_dataset() {
  data::dataset_config c = data::cifar10_like();
  c.classes = 4;
  c.train_per_class = 40;
  c.test_per_class = 10;
  return data::dataset{c};
}

vit_config tiny_vit() {
  vit_config c;
  c.name = "tiny-vit";
  c.image_size = 16;
  c.patch_size = 4;
  c.dim = 16;
  c.heads = 2;
  c.blocks = 1;
  c.mlp_hidden = 32;
  c.classes = 4;
  return c;
}

resnet_config tiny_resnet(resnet_flavor flavor) {
  resnet_config c;
  c.name = "tiny-resnet";
  c.flavor = flavor;
  c.stage_widths = {8, 16};
  c.blocks_per_stage = 1;
  c.classes = 4;
  return c;
}

TEST(Zoo, AllSevenModelsConstruct) {
  const task_spec t = tiny_task();
  for (const char* name : {"ViT-L/16", "ViT-B/16", "ViT-B/32", "ResNet-56", "ResNet-164",
                           "BiT-M-R101x3", "BiT-M-R152x4"}) {
    auto m = make_model(name, t);
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->name(), name);
    EXPECT_GT(m->parameter_count(), 0);
  }
  EXPECT_THROW(make_model("AlexNet", t), error);
}

TEST(Zoo, SizeOrderingMatchesPaperFamilies) {
  const task_spec t = tiny_task();
  EXPECT_GT(make_vit_l16_sim(t)->parameter_count(), make_vit_b16_sim(t)->parameter_count());
  EXPECT_GT(make_resnet164_sim(t)->parameter_count(), make_resnet56_sim(t)->parameter_count());
  EXPECT_GT(make_bit_r152x4_sim(t)->parameter_count(),
            make_bit_r101x3_sim(t)->parameter_count());
  EXPECT_GT(make_bit_r101x3_sim(t)->parameter_count(), make_resnet56_sim(t)->parameter_count());
}

TEST(Zoo, Table3RowsPerDataset) {
  EXPECT_EQ(table3_model_names("cifar10_like").size(), 6u);
  EXPECT_EQ(table3_model_names("imagenet_like").size(), 4u);
}

TEST(Vit, ForwardShapesAndTags) {
  vit_model m{tiny_vit()};
  rng g{4};
  forward_pass fp = m.forward(tensor::rand_uniform(g, {2, 3, 16, 16}), ad::norm_mode::eval);
  EXPECT_EQ(fp.graph.value(fp.logits).shape(), (shape_t{2, 4}));
  // The shield frontier tag must exist in every built graph.
  for (const std::string& tag : m.shield_frontier_tags())
    EXPECT_NE(fp.graph.find_tag(tag), ad::invalid_node) << tag;
  // Attention introspection used by SAGA.
  EXPECT_EQ(m.attention_blocks(), 1);
  const ad::node_id sm = fp.graph.find_tag(m.attention_softmax_tag(0));
  ASSERT_NE(sm, ad::invalid_node);
  EXPECT_EQ(fp.graph.value(sm).shape(), (shape_t{2 * 2, 17, 17}));  // [B·heads, T+1, T+1]
  EXPECT_THROW(m.attention_softmax_tag(5), error);
}

TEST(Vit, RejectsWrongInputShape) {
  vit_model m{tiny_vit()};
  rng g{5};
  EXPECT_THROW(m.forward(tensor::rand_uniform(g, {1, 3, 8, 8}), ad::norm_mode::eval), error);
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PELTA_TEST_SANITIZED_ALLOCATOR 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PELTA_TEST_SANITIZED_ALLOCATOR 1
#endif
#endif

// The heap policy (tensor/scratch.cpp) keeps the memory a forward frees
// mapped, so the next batch does not page-fault it back in: without it a
// steady-state batch-32 forward took about 430 minor faults at widths 1
// and 2.
TEST(Vit, SteadyStateBatchForwardDoesNotPageFault) {
#if !defined(__GLIBC__)
  GTEST_SKIP() << "the heap policy is a glibc mallopt setting";
#elif defined(PELTA_TEST_SANITIZED_ALLOCATOR)
  GTEST_SKIP() << "sanitizer allocators ignore mallopt";
#else
  task_spec task = tiny_task();
  task.classes = 10;
  const auto model = make_vit_b16_sim(task);
  rng gen{17};
  const tensor images = tensor::randn(gen, {32, 3, 16, 16});
  const auto minor_faults = [] {
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_minflt);
  };
  for (const int width : {1, 2}) {
    const concurrency_guard guard{width};
    for (int i = 0; i < 3; ++i) (void)model->forward(images, ad::norm_mode::eval);
    constexpr int k_forwards = 4;
    const double before = minor_faults();
    for (int i = 0; i < k_forwards; ++i) (void)model->forward(images, ad::norm_mode::eval);
    const double per_forward = (minor_faults() - before) / k_forwards;
    EXPECT_LT(per_forward, 16.0) << "PELTA_THREADS=" << width;
  }
#endif
}

TEST(Resnet, ForwardShapesBothFlavors) {
  rng g{6};
  const tensor x = tensor::rand_uniform(g, {2, 3, 16, 16});
  for (resnet_flavor flavor : {resnet_flavor::batchnorm, resnet_flavor::groupnorm_ws}) {
    resnet_model m{tiny_resnet(flavor)};
    forward_pass fp = m.forward(x, ad::norm_mode::eval);
    EXPECT_EQ(fp.graph.value(fp.logits).shape(), (shape_t{2, 4}));
    for (const std::string& tag : m.shield_frontier_tags())
      EXPECT_NE(fp.graph.find_tag(tag), ad::invalid_node) << tag;
    EXPECT_EQ(m.attention_blocks(), 0);  // CNNs expose no attention
  }
}

TEST(Resnet, FrontiersFollowPaperSectionVA) {
  EXPECT_EQ(resnet_model{tiny_resnet(resnet_flavor::batchnorm)}.shield_frontier_tags(),
            (std::vector<std::string>{"stem.relu"}));
  EXPECT_EQ(resnet_model{tiny_resnet(resnet_flavor::groupnorm_ws)}.shield_frontier_tags(),
            (std::vector<std::string>{"stem.conv"}));
}

TEST(Resnet, BitUsesWeightStandardizationAndGroupNorm) {
  resnet_model bit{tiny_resnet(resnet_flavor::groupnorm_ws)};
  rng g{7};
  forward_pass fp = bit.forward(tensor::rand_uniform(g, {1, 3, 16, 16}), ad::norm_mode::eval);
  EXPECT_NE(fp.graph.find_tag("stem.conv.ws"), ad::invalid_node);
  EXPECT_FALSE(bit.params().contains("stem.bn.gamma"));
  EXPECT_TRUE(bit.params().contains("s0b0.gn1.gamma"));

  resnet_model rn{tiny_resnet(resnet_flavor::batchnorm)};
  forward_pass fp2 = rn.forward(tensor::rand_uniform(g, {1, 3, 16, 16}), ad::norm_mode::eval);
  EXPECT_EQ(fp2.graph.find_tag("stem.conv.ws"), ad::invalid_node);
  EXPECT_TRUE(rn.params().contains("stem.bn.gamma"));
}

TEST(Trainer, VitLearnsTinyTask) {
  const data::dataset ds = tiny_dataset();
  vit_model m{tiny_vit()};
  train_config cfg;
  cfg.epochs = 8;
  cfg.batch_size = 16;
  cfg.lr = 3e-3f;
  const train_report r = train_model(m, ds, cfg);
  EXPECT_GT(r.train_accuracy, 0.9f) << "loss=" << r.final_loss;
  EXPECT_GT(r.test_accuracy, 0.85f);
}

TEST(Trainer, ResnetLearnsTinyTask) {
  const data::dataset ds = tiny_dataset();
  resnet_model m{tiny_resnet(resnet_flavor::batchnorm)};
  train_config cfg;
  cfg.epochs = 12;
  cfg.batch_size = 16;
  cfg.lr = 5e-3f;
  const train_report r = train_model(m, ds, cfg);
  EXPECT_GT(r.test_accuracy, 0.85f) << "loss=" << r.final_loss;
}

TEST(Trainer, BitLearnsTinyTask) {
  const data::dataset ds = tiny_dataset();
  resnet_model m{tiny_resnet(resnet_flavor::groupnorm_ws)};
  train_config cfg;
  cfg.epochs = 12;
  cfg.batch_size = 16;
  cfg.lr = 5e-3f;
  const train_report r = train_model(m, ds, cfg);
  EXPECT_GT(r.test_accuracy, 0.85f) << "loss=" << r.final_loss;
}

TEST(Trainer, LossDecreasesAcrossEpochs) {
  const data::dataset ds = tiny_dataset();
  vit_model m{tiny_vit()};
  const data::batch b = ds.gather_train({0, 1, 2, 3, 4, 5, 6, 7});
  m.params().zero_grads();
  const float initial = loss_and_grad(m, b);
  train_config cfg;
  cfg.epochs = 4;
  train_model(m, ds, cfg);
  m.params().zero_grads();
  const float after = loss_and_grad(m, b);
  EXPECT_LT(after, initial);
}

TEST(Model, PredictHelpers) {
  const data::dataset ds = tiny_dataset();
  vit_model m{tiny_vit()};
  train_config cfg;
  cfg.epochs = 6;
  train_model(m, ds, cfg);

  const tensor preds = predict(m, ds.test_images());
  EXPECT_EQ(preds.numel(), ds.test_size());
  const std::int64_t p0 = predict_one(m, ds.test_image(0));
  EXPECT_EQ(p0, static_cast<std::int64_t>(preds[0]));
  const float acc = accuracy(m, ds.test_images(), ds.test_labels());
  EXPECT_GE(acc, 0.0f);
  EXPECT_LE(acc, 1.0f);
}

TEST(Ensemble, RandomSelectionMixesMembers) {
  const data::dataset ds = tiny_dataset();
  vit_model vit{tiny_vit()};
  resnet_model cnn{tiny_resnet(resnet_flavor::groupnorm_ws)};
  train_config cfg;
  cfg.epochs = 6;
  train_model(vit, ds, cfg);
  train_model(cnn, ds, cfg);

  random_selection_ensemble ens{vit, cnn};
  rng g{8};
  const float acc = ens.accuracy(ds.test_images(), ds.test_labels(), g);
  const float a1 = accuracy(vit, ds.test_images(), ds.test_labels());
  const float a2 = accuracy(cnn, ds.test_images(), ds.test_labels());
  // Random selection lands between the members (with sampling slack).
  EXPECT_GE(acc, std::min(a1, a2) - 0.15f);
  EXPECT_LE(acc, std::max(a1, a2) + 0.15f);
}

TEST(Ensemble, ClassifyUsesSelectedMember) {
  vit_model vit{tiny_vit()};
  resnet_config rc = tiny_resnet(resnet_flavor::batchnorm);
  resnet_model cnn{rc};
  random_selection_ensemble ens{vit, cnn};
  rng g{9};
  const data::dataset ds = tiny_dataset();
  const std::int64_t pred = ens.classify(ds.test_image(0), g);
  EXPECT_GE(pred, 0);
  EXPECT_LT(pred, 4);
}

}  // namespace
}  // namespace pelta::models
