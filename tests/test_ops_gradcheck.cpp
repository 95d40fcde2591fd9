// Property-based gradient checking: every differentiable op's backward pass
// is validated against central finite differences across random seeds
// (parameterized suite), for every parent it feeds gradients to.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>

#include "autodiff/gradcheck.h"
#include "autodiff/graph.h"
#include "autodiff/ops_conv.h"
#include "autodiff/ops_elementwise.h"
#include "autodiff/ops_linalg.h"
#include "autodiff/ops_loss.h"
#include "autodiff/ops_norm.h"
#include "tensor/ops.h"

namespace pelta::ad {
namespace {

using op_factory = std::function<op_ptr()>;
using input_gen = std::function<tensor(rng&, const shape_t&)>;

tensor default_gen(rng& g, const shape_t& s) { return tensor::randn(g, s); }

// Inputs pushed away from zero: keeps finite differences off ReLU/maxpool kinks.
tensor kink_free_gen(rng& g, const shape_t& s) {
  tensor t = tensor::randn(g, s);
  for (float& v : t.data()) v += (v >= 0.0f ? 0.25f : -0.25f);
  return t;
}

struct op_case {
  std::string name;
  op_factory make;
  std::vector<shape_t> parent_shapes;
  std::vector<std::size_t> check_parents;  // which parents receive gradients
  input_gen gen = default_gen;
  float tol = 0.05f;
};

// Gradcheck one parent of one op: analytic adjoint vs numeric gradient of
// dot(op(parents), seed) with respect to parents[wrt].
float gradcheck_parent(const op_case& c, std::size_t wrt, std::uint64_t seed) {
  rng g{seed};
  std::vector<tensor> values;
  for (const shape_t& s : c.parent_shapes) values.push_back(c.gen(g, s));

  graph gr;
  std::vector<node_id> parents;
  for (const tensor& v : values) parents.push_back(gr.add_input(v));
  const node_id out = gr.add_transform(c.make(), parents);
  const tensor seed_t = tensor::randn(g, gr.value(out).shape());
  gr.backward_from(out, seed_t);
  const tensor analytic = gr.adjoint(parents[wrt]);

  const auto f = [&](const tensor& probe) {
    graph g2;
    std::vector<node_id> p2;
    for (std::size_t i = 0; i < values.size(); ++i)
      p2.push_back(g2.add_input(i == wrt ? probe : values[i]));
    const node_id o2 = g2.add_transform(c.make(), p2);
    return ops::dot(g2.value(o2), seed_t);
  };
  const tensor numeric = numeric_grad(f, values[wrt], 1e-2f);
  return max_rel_error(analytic, numeric);
}

std::vector<op_case> all_cases() {
  std::vector<op_case> cases;
  cases.push_back({"add", [] { return make_add(); }, {{2, 3}, {2, 3}}, {0, 1}});
  cases.push_back(
      {"add_broadcast_bias", [] { return make_add_broadcast(); }, {{4, 3}, {3}}, {0, 1}});
  cases.push_back(
      {"add_broadcast_posemb", [] { return make_add_broadcast(); }, {{2, 5, 3}, {5, 3}}, {0, 1}});
  cases.push_back({"mul", [] { return make_mul(); }, {{2, 4}, {2, 4}}, {0, 1}});
  cases.push_back({"scale", [] { return make_scale(-1.7f); }, {{3, 3}}, {0}});
  cases.push_back({"affine", [] { return make_affine(4.0f, -0.5f); }, {{3, 3}}, {0}});
  cases.push_back({"relu", [] { return make_relu(); }, {{4, 4}}, {0}, kink_free_gen});
  cases.push_back({"gelu", [] { return make_gelu(); }, {{4, 4}}, {0}});
  cases.push_back({"softmax", [] { return make_softmax_lastdim(); }, {{3, 5}}, {0}});
  cases.push_back({"log_softmax", [] { return make_log_softmax_lastdim(); }, {{3, 5}}, {0}});
  // Odd widths: rows cross the fn::exp / fn::tanh vector-to-tail boundary.
  for (const auto& [w, s] : {std::pair{"_3x7", shape_t{3, 7}}, std::pair{"_5x17", shape_t{5, 17}}}) {
    cases.push_back({std::string("gelu") + w, [] { return make_gelu(); }, {s}, {0}});
    cases.push_back({std::string("softmax") + w, [] { return make_softmax_lastdim(); }, {s}, {0}});
    cases.push_back(
        {std::string("log_softmax") + w, [] { return make_log_softmax_lastdim(); }, {s}, {0}});
  }
  cases.push_back({"bmm", [] { return make_bmm(); }, {{2, 3, 4}, {2, 4, 2}}, {0, 1}});
  cases.push_back({"attention_weights", [] { return make_attention_weights(0.35f); },
                   {{2, 3, 4}, {2, 5, 4}}, {0, 1}});
  cases.push_back({"reshape", [] { return make_reshape({6, 2}); }, {{3, 4}}, {0}});
  cases.push_back({"split_heads", [] { return make_split_heads(3); }, {{2, 4, 6}}, {0}});
  cases.push_back({"merge_heads", [] { return make_merge_heads(3); }, {{6, 4, 2}}, {0}});
  cases.push_back(
      {"prepend_token", [] { return make_prepend_token(); }, {{4}, {2, 3, 4}}, {0, 1}});
  cases.push_back({"slice_row", [] { return make_slice_row(1); }, {{2, 3, 4}}, {0}});
  // One dense op at rank 2 (heads) and rank 3 (per-token projections).
  cases.push_back({"linear", [] { return make_linear(true); }, {{3, 4}, {4, 2}, {2}}, {0, 1, 2}});
  cases.push_back({"linear_nobias", [] { return make_linear(false); }, {{3, 4}, {4, 2}}, {0, 1}});
  cases.push_back(
      {"linear_rank3", [] { return make_linear(true); }, {{2, 3, 4}, {4, 5}, {5}}, {0, 1, 2}});
  cases.push_back(
      {"linear_rank3_nobias", [] { return make_linear(false); }, {{2, 3, 4}, {4, 5}}, {0, 1}});
  cases.push_back({"conv2d",
                   [] { return make_conv2d(1, 1, true); },
                   {{1, 2, 4, 4}, {3, 2, 3, 3}, {3}},
                   {0, 1, 2}});
  cases.push_back({"conv2d_stride2",
                   [] { return make_conv2d(2, 1, false); },
                   {{1, 2, 6, 6}, {3, 2, 3, 3}},
                   {0, 1}});
  // Stride/padding edge cases: valid (pad=0) convs, pad wider than kernel//2,
  // stride 3, 1x1 kernels, rectangular inputs, batch > 1.
  cases.push_back({"conv2d_pad0",
                   [] { return make_conv2d(1, 0, true); },
                   {{1, 2, 5, 5}, {3, 2, 3, 3}, {3}},
                   {0, 1, 2}});
  cases.push_back({"conv2d_stride2_pad0",
                   [] { return make_conv2d(2, 0, false); },
                   {{1, 2, 7, 7}, {3, 2, 3, 3}},
                   {0, 1}});
  cases.push_back({"conv2d_stride2_pad2",
                   [] { return make_conv2d(2, 2, true); },
                   {{1, 2, 5, 5}, {2, 2, 3, 3}, {2}},
                   {0, 1, 2}});
  cases.push_back({"conv2d_stride3",
                   [] { return make_conv2d(3, 1, false); },
                   {{1, 2, 8, 8}, {3, 2, 3, 3}},
                   {0, 1}});
  cases.push_back({"conv2d_1x1",
                   [] { return make_conv2d(1, 0, false); },
                   {{1, 3, 4, 4}, {2, 3, 1, 1}},
                   {0, 1}});
  cases.push_back({"conv2d_rect_batch2",
                   [] { return make_conv2d(1, 1, true); },
                   {{2, 2, 4, 6}, {3, 2, 3, 3}, {3}},
                   {0, 1, 2}});
  cases.push_back(
      {"maxpool", [] { return make_maxpool2x2(); }, {{1, 2, 4, 4}}, {0}, kink_free_gen});
  cases.push_back({"global_avgpool", [] { return make_global_avgpool(); }, {{2, 3, 4, 4}}, {0}});
  cases.push_back({"patchify", [] { return make_patchify(2); }, {{1, 3, 4, 4}}, {0}});
  cases.push_back({"layernorm",
                   [] { return make_layernorm_lastdim(); },
                   {{3, 6}, {6}, {6}},
                   {0, 1, 2}});
  cases.push_back({"groupnorm",
                   [] { return make_groupnorm(2); },
                   {{2, 4, 3, 3}, {4}, {4}},
                   {0, 1, 2}});
  // Norm edge cases: one group (layernorm-over-channels) and one group per
  // channel (instance-norm-like).
  cases.push_back({"groupnorm_1group",
                   [] { return make_groupnorm(1); },
                   {{2, 4, 3, 3}, {4}, {4}},
                   {0, 1, 2}});
  cases.push_back({"groupnorm_per_channel",
                   [] { return make_groupnorm(4); },
                   {{2, 4, 3, 3}, {4}, {4}},
                   {0, 1, 2}});
  cases.push_back({"layernorm_eps",
                   [] { return make_layernorm_lastdim(1e-3f); },
                   {{2, 4, 6}, {6}, {6}},
                   {0, 1, 2}});
  cases.push_back(
      {"weight_standardize", [] { return make_weight_standardize(); }, {{3, 2, 3, 3}}, {0}});
  return cases;
}

class OpGradcheck : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OpGradcheck, AllOpsMatchFiniteDifferences) {
  const std::uint64_t seed = GetParam();
  for (const op_case& c : all_cases()) {
    for (std::size_t wrt : c.check_parents) {
      const float err = gradcheck_parent(c, wrt, seed);
      EXPECT_LT(err, c.tol) << "op=" << c.name << " parent=" << wrt << " seed=" << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OpGradcheck, ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ---- layout ops: exact identities and shape checks ---------------------------

TEST(HeadsLayout, MergeOfSplitIsTheIdentityBitForBit) {
  rng g{17};
  tensor x0 = tensor::randn(g, {3, 5, 8});
  x0[7] = -0.0f;
  x0[11] = std::numeric_limits<float>::quiet_NaN();
  graph gr;
  const node_id x = gr.add_input(x0);
  const node_id split = gr.add_transform(make_split_heads(4), {x});
  EXPECT_EQ(gr.value(split).shape(), (shape_t{12, 5, 2}));
  // Row b·H+h of the split holds head h of batch row b.
  EXPECT_EQ(gr.value(split).at(2 * 4 + 3, 4, 1), x0.at(2, 4, 3 * 2 + 1));
  const node_id merged = gr.add_transform(make_merge_heads(4), {split});
  ASSERT_EQ(gr.value(merged).shape(), x0.shape());
  EXPECT_EQ(std::memcmp(gr.value(merged).data().data(), x0.data().data(),
                        static_cast<std::size_t>(x0.numel()) * sizeof(float)),
            0);
}

TEST(HeadsLayout, RejectsIndivisibleDims) {
  graph gr;
  const node_id x = gr.add_input(tensor::zeros({2, 3, 6}));
  EXPECT_THROW(gr.add_transform(make_split_heads(4), {x}), error);   // last dim 6
  EXPECT_THROW(gr.add_transform(make_merge_heads(4), {x}), error);   // leading dim 2
}

// The attention-weights node replaced a bmm_bt, scale, softmax sequence and
// must keep its bits, forward and backward.
TEST(AttentionWeights, MatchesBmmBtScaleSoftmaxBitForBit) {
  rng g{23};
  const tensor q0 = tensor::randn(g, {6, 17, 8});
  const tensor k0 = tensor::randn(g, {6, 17, 8});
  const tensor seed = tensor::randn(g, {6, 17, 17});
  const float s = 1.0f / std::sqrt(8.0f);
  graph fused;
  const node_id q = fused.add_input(q0);
  const node_id k = fused.add_input(k0);
  const node_id w = fused.add_transform(make_attention_weights(s), {q, k});
  fused.backward_from(w, seed);

  graph soft;  // the softmax node alone, fed the scaled scores
  const node_id scores = soft.add_input(ops::mul_scalar(ops::bmm_bt(q0, k0), s));
  const node_id p = soft.add_transform(make_softmax_lastdim(), {scores});
  soft.backward_from(p, seed);
  const tensor gs = ops::mul_scalar(soft.adjoint(scores), s);

  const auto same_bits = [](const tensor& a, const tensor& b) {
    return a.shape() == b.shape() &&
           std::memcmp(a.data().data(), b.data().data(),
                       static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
  };
  EXPECT_TRUE(same_bits(fused.value(w), soft.value(p)));
  EXPECT_TRUE(same_bits(fused.adjoint(q), ops::bmm(gs, k0)));
  EXPECT_TRUE(same_bits(fused.adjoint(k),
                        ops::transpose_last2(ops::bmm(ops::transpose_last2(q0), gs))));
}

// ---- ops whose state/setup does not fit the generic harness ------------------

TEST(BatchNormGradcheck, TrainMode) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    rng g{seed};
    const tensor x0 = tensor::randn(g, {3, 2, 3, 3});
    const tensor ga0 = tensor::rand_uniform(g, {2}, 0.5f, 1.5f);
    const tensor be0 = tensor::randn(g, {2});
    const tensor seed_t = tensor::randn(g, {3, 2, 3, 3});

    batchnorm_stats stats{tensor::zeros({2}), tensor::ones({2})};
    graph gr;
    const node_id x = gr.add_input(x0);
    const node_id ga = gr.add_input(ga0);
    const node_id be = gr.add_input(be0);
    const node_id y =
        gr.add_transform(make_batchnorm2d(&stats, norm_mode::train), {x, ga, be});
    gr.backward_from(y, seed_t);

    const auto make_f = [&](int wrt) {
      return [&, wrt](const tensor& probe) {
        batchnorm_stats s2{tensor::zeros({2}), tensor::ones({2})};
        graph g2;
        const node_id x2 = g2.add_input(wrt == 0 ? probe : x0);
        const node_id ga2 = g2.add_input(wrt == 1 ? probe : ga0);
        const node_id be2 = g2.add_input(wrt == 2 ? probe : be0);
        const node_id y2 =
            g2.add_transform(make_batchnorm2d(&s2, norm_mode::train), {x2, ga2, be2});
        return ops::dot(g2.value(y2), seed_t);
      };
    };
    EXPECT_LT(max_rel_error(gr.adjoint(x), numeric_grad(make_f(0), x0, 1e-2f)), 0.06f)
        << "seed=" << seed;
    EXPECT_LT(max_rel_error(gr.adjoint(ga), numeric_grad(make_f(1), ga0, 1e-2f)), 0.06f)
        << "seed=" << seed;
    EXPECT_LT(max_rel_error(gr.adjoint(be), numeric_grad(make_f(2), be0, 1e-2f)), 0.06f)
        << "seed=" << seed;
  }
}

TEST(BatchNormGradcheck, EvalModeUsesRunningStats) {
  rng g{7};
  const tensor x0 = tensor::randn(g, {2, 2, 2, 2});
  const tensor seed_t = tensor::randn(g, {2, 2, 2, 2});
  batchnorm_stats stats{tensor{{2}, {0.3f, -0.2f}}, tensor{{2}, {1.5f, 0.7f}}};

  graph gr;
  const node_id x = gr.add_input(x0);
  const node_id ga = gr.add_input(tensor::ones({2}));
  const node_id be = gr.add_input(tensor::zeros({2}));
  const node_id y = gr.add_transform(make_batchnorm2d(&stats, norm_mode::eval), {x, ga, be});
  gr.backward_from(y, seed_t);

  // Eval mode is an affine map: dx = seed / sqrt(var + eps) per channel.
  const float s0 = 1.0f / std::sqrt(1.5f + 1e-5f);
  const float s1 = 1.0f / std::sqrt(0.7f + 1e-5f);
  const tensor& dx = gr.adjoint(x);
  for (std::int64_t n = 0; n < 2; ++n)
    for (std::int64_t i = 0; i < 2; ++i)
      for (std::int64_t j = 0; j < 2; ++j) {
        EXPECT_NEAR(dx.at(n, 0, i, j), seed_t.at(n, 0, i, j) * s0, 1e-5f);
        EXPECT_NEAR(dx.at(n, 1, i, j), seed_t.at(n, 1, i, j) * s1, 1e-5f);
      }
}

TEST(BatchNormGradcheck, TrainModeUpdatesRunningStats) {
  rng g{8};
  batchnorm_stats stats{tensor::zeros({2}), tensor::ones({2})};
  graph gr;
  const node_id x = gr.add_input(ops::add_scalar(tensor::randn(g, {4, 2, 3, 3}), 2.0f));
  const node_id ga = gr.add_input(tensor::ones({2}));
  const node_id be = gr.add_input(tensor::zeros({2}));
  gr.add_transform(make_batchnorm2d(&stats, norm_mode::train, 0.1f), {x, ga, be});
  // Running mean moved towards the (shifted) batch mean.
  EXPECT_GT(stats.running_mean[0], 0.05f);
  EXPECT_GT(stats.running_mean[1], 0.05f);
}

TEST(CrossEntropyGradcheck, MatchesFiniteDifferences) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    rng g{seed};
    const tensor logits0 = tensor::randn(g, {4, 5});
    const tensor labels{{4}, {0, 2, 4, 1}};

    graph gr;
    const node_id logits = gr.add_input(logits0);
    const node_id lab = gr.add_constant(labels);
    const node_id loss = gr.add_transform(make_cross_entropy(), {logits, lab});
    gr.backward(loss);

    const auto f = [&](const tensor& probe) {
      graph g2;
      const node_id l2 = g2.add_input(probe);
      const node_id la2 = g2.add_constant(labels);
      return g2.value(g2.add_transform(make_cross_entropy(), {l2, la2})).item();
    };
    EXPECT_LT(max_rel_error(gr.adjoint(logits), numeric_grad(f, logits0, 1e-2f)), 0.05f)
        << "seed=" << seed;
  }
}

TEST(SoftmaxProperty, RowsSumToOne) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    rng g{seed};
    graph gr;
    const node_id x = gr.add_input(tensor::randn(g, {4, 7}, 0.0f, 3.0f));
    const node_id s = gr.add_transform(make_softmax_lastdim(), {x});
    const tensor& out = gr.value(s);
    for (std::int64_t r = 0; r < 4; ++r) {
      double row = 0.0;
      for (std::int64_t c = 0; c < 7; ++c) {
        EXPECT_GE(out.at(r, c), 0.0f);
        row += out.at(r, c);
      }
      EXPECT_NEAR(row, 1.0, 1e-5);
    }
  }
}

TEST(WeightStandardizeProperty, RowsZeroMeanUnitVar) {
  rng g{11};
  graph gr;
  const node_id w = gr.add_input(tensor::randn(g, {4, 2, 3, 3}, 1.0f, 2.0f));
  const node_id ws = gr.add_transform(make_weight_standardize(), {w});
  const tensor& out = gr.value(ws);
  for (std::int64_t o = 0; o < 4; ++o) {
    double mu = 0.0, var = 0.0;
    for (std::int64_t i = 0; i < 18; ++i) mu += out[o * 18 + i];
    mu /= 18.0;
    for (std::int64_t i = 0; i < 18; ++i) {
      const double d = out[o * 18 + i] - mu;
      var += d * d;
    }
    var /= 18.0;
    EXPECT_NEAR(mu, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(PatchifyProperty, RoundTripsThroughBackward) {
  // patchify is a permutation: backward(forward seed) recovers the seed.
  rng g{12};
  const tensor x0 = tensor::randn(g, {1, 3, 4, 4});
  graph gr;
  const node_id x = gr.add_input(x0);
  const node_id p = gr.add_transform(make_patchify(2), {x});
  EXPECT_EQ(gr.value(p).shape(), (shape_t{1, 4, 12}));
  gr.backward_from(p, gr.value(p));  // seed with the output itself
  const tensor& gx = gr.adjoint(x);
  for (std::int64_t i = 0; i < x0.numel(); ++i) EXPECT_FLOAT_EQ(gx[i], x0[i]);
}

}  // namespace
}  // namespace pelta::ad
