// nn layer zoo: parameter store, initializers, layers, attention, optimizers.
#include <gtest/gtest.h>

#include "autodiff/gradcheck.h"
#include "nn/blocks.h"
#include "nn/init.h"
#include "nn/optimizer.h"
#include "tensor/ops.h"

namespace pelta::nn {
namespace {

TEST(ParamStore, CreateAndLookup) {
  param_store store;
  rng g{1};
  store.create("a", tensor::ones({2, 3}));
  store.create("b", tensor::zeros({4}));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.scalar_count(), 10);
  EXPECT_TRUE(store.contains("a"));
  EXPECT_FALSE(store.contains("c"));
  EXPECT_FLOAT_EQ(store.get("a").value.at(0, 0), 1.0f);
  EXPECT_THROW(store.get("c"), error);
  EXPECT_THROW(store.create("a", tensor::ones({1})), error);  // duplicate
}

TEST(ParamStore, ZeroGrads) {
  param_store store;
  auto& p = store.create("w", tensor::ones({3}));
  p.grad.fill_(5.0f);
  store.zero_grads();
  for (float v : p.grad.data()) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(ParamStore, SaveLoadRoundTrip) {
  param_store a;
  rng g{2};
  a.create("w1", tensor::randn(g, {3, 3}));
  a.create("w2", tensor::randn(g, {5}));
  const byte_buffer buf = a.save_values();

  param_store b;
  b.create("w1", tensor::zeros({3, 3}));
  b.create("w2", tensor::zeros({5}));
  b.load_values(buf);
  for (std::int64_t i = 0; i < 9; ++i)
    EXPECT_FLOAT_EQ(b.get("w1").value[i], a.get("w1").value[i]);
  for (std::int64_t i = 0; i < 5; ++i)
    EXPECT_FLOAT_EQ(b.get("w2").value[i], a.get("w2").value[i]);
}

TEST(ParamStore, LoadRejectsWrongStructure) {
  param_store a;
  a.create("w", tensor::ones({4}));
  param_store b;
  b.create("w", tensor::ones({5}));
  EXPECT_THROW(b.load_values(a.save_values()), error);
}

TEST(ParamStore, AxpyAndCopy) {
  param_store a, b;
  a.create("w", tensor::ones({2}));
  b.create("w", tensor::full({2}, 3.0f));
  a.axpy_values(b, 2.0f);
  EXPECT_FLOAT_EQ(a.get("w").value[0], 7.0f);
  a.copy_values_from(b);
  EXPECT_FLOAT_EQ(a.get("w").value[1], 3.0f);
}

TEST(Init, XavierBounds) {
  rng g{3};
  const tensor w = xavier_uniform(g, {64, 64}, 64, 64);
  const float bound = std::sqrt(6.0f / 128.0f);
  for (float v : w.data()) {
    EXPECT_GE(v, -bound);
    EXPECT_LE(v, bound);
  }
}

TEST(Init, HeNormalStd) {
  rng g{4};
  const tensor w = he_normal(g, {5000}, 50);
  float mean = ops::mean(w);
  double var = 0.0;
  for (float v : w.data()) var += (v - mean) * (v - mean);
  var /= static_cast<double>(w.numel());
  EXPECT_NEAR(std::sqrt(var), std::sqrt(2.0 / 50.0), 0.02);
}

TEST(Init, TruncNormalBounded) {
  rng g{5};
  const tensor w = trunc_normal02(g, {2000});
  for (float v : w.data()) EXPECT_LE(std::fabs(v), 0.04f);
}

TEST(Init, ConvFans) {
  EXPECT_EQ(conv_fan_in({8, 3, 5, 5}), 75);
  EXPECT_EQ(conv_fan_out({8, 3, 5, 5}), 200);
}

TEST(Layers, LinearShapesAndBias) {
  param_store store;
  rng g{6};
  linear_layer fc{store, g, "fc", 4, 3};
  EXPECT_TRUE(store.contains("fc.w"));
  EXPECT_TRUE(store.contains("fc.b"));

  ad::graph gr;
  const ad::node_id x = gr.add_input(tensor::randn(g, {2, 4}));
  const ad::node_id y = fc.apply(gr, x);
  EXPECT_EQ(gr.value(y).shape(), (shape_t{2, 3}));
  EXPECT_EQ(gr.at(y).tag, "fc");
}

// The same linear layer serves a per-token [B,T,In] projection.
TEST(Layers, TokenLinearShapes) {
  param_store store;
  rng g{7};
  linear_layer fc{store, g, "tl", 6, 4};
  ad::graph gr;
  const ad::node_id x = gr.add_input(tensor::randn(g, {2, 5, 6}));
  const ad::node_id y = fc.apply(gr, x);
  EXPECT_EQ(gr.value(y).shape(), (shape_t{2, 5, 4}));
}

TEST(Layers, ConvShapesPlain) {
  param_store store;
  rng g{8};
  conv2d_layer conv{store, g, "c", 3, 8, 3, 1, 1, true, false};
  ad::graph gr;
  const ad::node_id x = gr.add_input(tensor::randn(g, {2, 3, 8, 8}));
  const ad::node_id y = conv.apply(gr, x);
  EXPECT_EQ(gr.value(y).shape(), (shape_t{2, 8, 8, 8}));
  EXPECT_EQ(gr.find_tag("c.ws"), ad::invalid_node);  // no WS node
}

TEST(Layers, WeightStandardizedConvAddsWsNode) {
  param_store store;
  rng g{9};
  conv2d_layer conv{store, g, "c", 3, 8, 3, 1, 1, false, true};
  ad::graph gr;
  const ad::node_id x = gr.add_input(tensor::randn(g, {1, 3, 8, 8}));
  conv.apply(gr, x);
  const ad::node_id ws = gr.find_tag("c.ws");
  ASSERT_NE(ws, ad::invalid_node);
  EXPECT_FALSE(gr.at(ws).input_dependent);  // parameter-derived branch
}

TEST(Layers, NormLayersPreserveShape) {
  param_store store;
  rng g{10};
  batchnorm_layer bn{store, "bn", 4};
  groupnorm_layer gn{store, "gn", 4, 2};
  layernorm_layer ln{store, "ln", 6};

  ad::graph gr;
  const ad::node_id x4 = gr.add_input(tensor::randn(g, {2, 4, 3, 3}));
  EXPECT_EQ(gr.value(bn.apply(gr, x4, ad::norm_mode::train)).shape(), (shape_t{2, 4, 3, 3}));
  EXPECT_EQ(gr.value(gn.apply(gr, x4)).shape(), (shape_t{2, 4, 3, 3}));
  const ad::node_id x3 = gr.add_input(tensor::randn(g, {2, 5, 6}));
  EXPECT_EQ(gr.value(ln.apply(gr, x3)).shape(), (shape_t{2, 5, 6}));
}

TEST(Attention, OutputShapeAndSoftmaxTags) {
  param_store store;
  rng g{11};
  multi_head_attention mha{store, g, "attn", 8, 2};
  ad::graph gr;
  const ad::node_id x = gr.add_input(tensor::randn(g, {2, 5, 8}));
  const ad::node_id y = mha.apply(gr, x);
  EXPECT_EQ(gr.value(y).shape(), (shape_t{2, 5, 8}));

  // One softmax node for all heads: [B·H, T, T], row b·H+h.
  const ad::node_id sm = gr.find_tag("attn.softmax");
  ASSERT_NE(sm, ad::invalid_node);
  const tensor& probs = gr.value(sm);
  EXPECT_EQ(probs.shape(), (shape_t{4, 5, 5}));
  for (std::int64_t bh = 0; bh < 4; ++bh)
    for (std::int64_t i = 0; i < 5; ++i) {
      double row = 0.0;
      for (std::int64_t j = 0; j < 5; ++j) row += probs.at(bh, i, j);
      EXPECT_NEAR(row, 1.0, 1e-5);
    }
}

TEST(Attention, IndivisibleHeadsThrow) {
  param_store store;
  rng g{12};
  EXPECT_THROW((multi_head_attention{store, g, "a", 7, 2}), error);
}

TEST(Attention, GradientFlowsToInput) {
  param_store store;
  rng g{13};
  multi_head_attention mha{store, g, "attn", 4, 2};
  ad::graph gr;
  const tensor x0 = tensor::randn(g, {1, 3, 4});
  const ad::node_id x = gr.add_input(x0);
  const ad::node_id y = mha.apply(gr, x);
  gr.backward_from(y, tensor::ones({1, 3, 4}));
  EXPECT_TRUE(gr.has_adjoint(x));
  EXPECT_GT(ops::norm_l2(gr.adjoint(x)), 0.0f);
}

TEST(Blocks, PatchEmbeddingPipeline) {
  param_store store;
  rng g{14};
  patch_embedding embed{store, g, "embed", 3, 8, 2, 16};
  EXPECT_EQ(embed.tokens(), 16);

  ad::graph gr;
  const ad::node_id x = gr.add_input(tensor::randn(g, {2, 3, 8, 8}));
  const ad::node_id z0 = embed.apply(gr, x);
  EXPECT_EQ(gr.value(z0).shape(), (shape_t{2, 17, 16}));  // T+1 class token
  EXPECT_NE(gr.find_tag("embed.patchify"), ad::invalid_node);
  EXPECT_NE(gr.find_tag("embed.proj"), ad::invalid_node);
  EXPECT_NE(gr.find_tag("embed.cls_cat"), ad::invalid_node);
  EXPECT_EQ(gr.find_tag("embed.out"), z0);
}

TEST(Blocks, EncoderBlockResidualIdentityAtZeroWeights) {
  // With all attention/MLP output-projection weights zeroed, the block must
  // reduce to the identity (residual connections only).
  param_store store;
  rng g{15};
  encoder_block block{store, g, "enc", 8, 2, 16};
  store.get("enc.attn.out.w").value.fill_(0.0f);
  store.get("enc.attn.out.b").value.fill_(0.0f);
  store.get("enc.mlp.fc2.w").value.fill_(0.0f);
  store.get("enc.mlp.fc2.b").value.fill_(0.0f);

  ad::graph gr;
  const tensor x0 = tensor::randn(g, {1, 4, 8});
  const ad::node_id x = gr.add_input(x0);
  const ad::node_id y = block.apply(gr, x);
  const tensor& out = gr.value(y);
  for (std::int64_t i = 0; i < x0.numel(); ++i) EXPECT_NEAR(out[i], x0[i], 1e-5f);
}

TEST(Optimizer, SgdConvergesOnQuadratic) {
  param_store store;
  auto& p = store.create("w", tensor::full({4}, 5.0f));
  sgd opt{0.1f};
  for (int i = 0; i < 200; ++i) {
    store.zero_grads();
    p.grad = p.value;  // d/dw (0.5 w²) = w
    opt.step(store);
  }
  EXPECT_LT(ops::norm_linf(p.value), 1e-4f);
}

TEST(Optimizer, SgdMomentumFasterThanPlain) {
  param_store a, b;
  auto& pa = a.create("w", tensor::full({1}, 5.0f));
  auto& pb = b.create("w", tensor::full({1}, 5.0f));
  sgd plain{0.02f};
  sgd heavy{0.02f, 0.9f};
  for (int i = 0; i < 40; ++i) {
    a.zero_grads();
    pa.grad = pa.value;
    plain.step(a);
    b.zero_grads();
    pb.grad = pb.value;
    heavy.step(b);
  }
  EXPECT_LT(std::fabs(pb.value[0]), std::fabs(pa.value[0]));
}

TEST(Optimizer, AdamConvergesOnQuadratic) {
  param_store store;
  auto& p = store.create("w", tensor::full({4}, 3.0f));
  adam opt{0.1f};
  for (int i = 0; i < 300; ++i) {
    store.zero_grads();
    p.grad = p.value;
    opt.step(store);
  }
  EXPECT_LT(ops::norm_linf(p.value), 1e-2f);
}

TEST(Optimizer, WeightDecayShrinksParams) {
  param_store store;
  auto& p = store.create("w", tensor::full({1}, 1.0f));
  sgd opt{0.1f, 0.0f, 0.5f};
  store.zero_grads();  // zero gradient: only decay acts
  opt.step(store);
  EXPECT_LT(p.value[0], 1.0f);
}

}  // namespace
}  // namespace pelta::nn
