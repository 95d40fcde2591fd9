// Computational graph: construction, eager forward, reverse sweep, the
// paper's G = ⟨n, l, E, u, f⟩ introspection used by Algorithm 1.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "autodiff/graph.h"
#include "autodiff/gradcheck.h"
#include "autodiff/ops_elementwise.h"
#include "autodiff/ops_linalg.h"
#include "autodiff/ops_loss.h"
#include "autodiff/ops_norm.h"
#include "tensor/ops.h"

namespace pelta::ad {
namespace {

TEST(Graph, EagerForwardOnAdd) {
  graph g;
  const node_id a = g.add_constant(tensor{{2}, {1, 2}});
  const node_id b = g.add_constant(tensor{{2}, {10, 20}});
  const node_id c = g.add_transform(make_add(), {a, b}, "sum");
  EXPECT_FLOAT_EQ(g.value(c)[0], 11.0f);
  EXPECT_FLOAT_EQ(g.value(c)[1], 22.0f);
}

TEST(Graph, KindsAndFlags) {
  graph g;
  parameter w{"w", tensor::ones({2})};
  const node_id x = g.add_input(tensor{{2}, {1, 1}});
  const node_id p = g.add_parameter(w);
  const node_id k = g.add_constant(tensor::ones({2}));
  const node_id t = g.add_transform(make_add(), {x, p});
  const node_id t2 = g.add_transform(make_add(), {p, k});

  EXPECT_TRUE(g.at(x).input_dependent);
  EXPECT_FALSE(g.at(p).input_dependent);
  EXPECT_TRUE(g.at(t).input_dependent);
  EXPECT_FALSE(g.at(t2).input_dependent);  // parameter-only branch
  EXPECT_TRUE(g.at(t).requires_grad);
  EXPECT_TRUE(g.at(t2).requires_grad);
  EXPECT_FALSE(g.at(k).requires_grad);
}

TEST(Graph, BackwardThroughChain) {
  // y = 3 * (x + x) -> dy/dx = 6 per element, summed via a dot with ones.
  graph g;
  const node_id x = g.add_input(tensor{{3}, {1, 2, 3}});
  const node_id s = g.add_transform(make_add(), {x, x});
  const node_id y = g.add_transform(make_scale(3.0f), {s});
  g.backward_from(y, tensor::ones({3}));
  const tensor& gx = g.adjoint(x);
  for (std::int64_t i = 0; i < 3; ++i) EXPECT_FLOAT_EQ(gx[i], 6.0f);
}

TEST(Graph, BackwardScalarSeedRequiresScalar) {
  graph g;
  const node_id x = g.add_input(tensor{{2}, {1, 2}});
  EXPECT_THROW(g.backward(x), error);
}

TEST(Graph, BackwardFromChecksSeedShape) {
  graph g;
  const node_id x = g.add_input(tensor{{2}, {1, 2}});
  EXPECT_THROW(g.backward_from(x, tensor::ones({3})), error);
}

TEST(Graph, AdjointAccumulatesAcrossSeeds) {
  graph g;
  const node_id x = g.add_input(tensor{{2}, {1, 1}});
  const node_id y = g.add_transform(make_scale(2.0f), {x});
  g.backward_from(y, tensor::ones({2}));
  g.backward_from(y, tensor::ones({2}));
  EXPECT_FLOAT_EQ(g.adjoint(x)[0], 4.0f);
  g.zero_adjoints();
  EXPECT_FALSE(g.has_adjoint(x));
}

TEST(Graph, MatmulGradientsMatchFiniteDifference) {
  rng gen{20};
  const tensor a0 = tensor::randn(gen, {3, 4});
  const tensor b0 = tensor::randn(gen, {4, 2});
  const tensor seed = tensor::randn(gen, {3, 2});

  graph g;
  const node_id a = g.add_input(a0, "a");
  parameter bp{"b", b0};
  const node_id b = g.add_parameter(bp);
  const node_id c = g.add_transform(make_linear(/*with_bias=*/false), {a, b});
  g.backward_from(c, seed);

  const auto fa = [&](const tensor& probe) { return ops::dot(ops::matmul(probe, b0), seed); };
  EXPECT_LT(max_rel_error(g.adjoint(a), numeric_grad(fa, a0, 1e-2f)), 0.05f);
  const auto fb = [&](const tensor& probe) { return ops::dot(ops::matmul(a0, probe), seed); };
  EXPECT_LT(max_rel_error(g.adjoint(b), numeric_grad(fb, b0, 1e-2f)), 0.05f);
}

TEST(Graph, ParamGradAccumulation) {
  parameter w{"w", tensor{{2}, {3, 4}}};
  graph g;
  const node_id x = g.add_input(tensor{{2}, {1, 2}});
  const node_id p = g.add_parameter(w);
  const node_id y = g.add_transform(make_mul(), {x, p});
  g.backward_from(y, tensor::ones({2}));
  g.accumulate_param_grads();
  EXPECT_FLOAT_EQ(w.grad[0], 1.0f);  // d(x*w)/dw = x
  EXPECT_FLOAT_EQ(w.grad[1], 2.0f);

  // second accumulation adds
  g.zero_adjoints();
  g.backward_from(y, tensor::ones({2}));
  g.accumulate_param_grads();
  EXPECT_FLOAT_EQ(w.grad[1], 4.0f);
}

TEST(Graph, ChildrenAndTags) {
  graph g;
  const node_id x = g.add_input(tensor::ones({2}), "x");
  const node_id a = g.add_transform(make_scale(1.0f), {x}, "branch.a");
  const node_id b = g.add_transform(make_scale(2.0f), {x}, "branch.b");
  const node_id c = g.add_transform(make_add(), {a, b}, "join");

  const auto kids = g.children(x);
  ASSERT_EQ(kids.size(), 2u);
  EXPECT_EQ(kids[0], a);
  EXPECT_EQ(kids[1], b);
  EXPECT_EQ(g.find_tag("join"), c);
  EXPECT_EQ(g.find_tag("nope"), invalid_node);
  EXPECT_EQ(g.find_tag_prefix("branch.").size(), 2u);
  ASSERT_EQ(g.inputs().size(), 1u);
  EXPECT_EQ(g.inputs()[0], x);
}

TEST(Graph, TopologicalEdgeEnforcement) {
  graph g;
  const node_id x = g.add_input(tensor::ones({2}));
  (void)x;
  EXPECT_THROW(g.add_transform(make_add(), {x, 5}, ""), error);  // forward reference
}

TEST(Graph, NonRequiresGradBranchSkipped) {
  graph g;
  const node_id c1 = g.add_constant(tensor::ones({2}));
  const node_id c2 = g.add_constant(tensor::ones({2}));
  const node_id sum = g.add_transform(make_add(), {c1, c2});
  g.backward_from(sum, tensor::ones({2}));
  EXPECT_FALSE(g.has_adjoint(c1));  // constants never receive adjoints
}

TEST(Graph, CrossEntropyKnownGradient) {
  // Two classes, logits [0, 0]: softmax = [.5,.5]; label 0 -> grad = (p - 1, p)/B
  graph g;
  const node_id logits = g.add_input(tensor::zeros({1, 2}));
  const node_id labels = g.add_constant(tensor{{1}, {0.0f}});
  const node_id loss = g.add_transform(make_cross_entropy(), {logits, labels});
  EXPECT_NEAR(g.value(loss).item(), std::log(2.0f), 1e-5f);
  g.backward(loss);
  EXPECT_NEAR(g.adjoint(logits).at(0, 0), -0.5f, 1e-5f);
  EXPECT_NEAR(g.adjoint(logits).at(0, 1), 0.5f, 1e-5f);
}

TEST(Graph, DiamondGraphAccumulatesBothPaths) {
  // y = 2x + 3x through two branches -> dy/dx = 5.
  graph g;
  const node_id x = g.add_input(tensor::ones({1}));
  const node_id a = g.add_transform(make_scale(2.0f), {x});
  const node_id b = g.add_transform(make_scale(3.0f), {x});
  const node_id y = g.add_transform(make_add(), {a, b});
  g.backward_from(y, tensor::ones({1}));
  EXPECT_FLOAT_EQ(g.adjoint(x)[0], 5.0f);
}

TEST(Graph, ToStringListsNodes) {
  graph g;
  const node_id x = g.add_input(tensor::ones({2}), "x");
  g.add_transform(make_relu(), {x}, "act");
  const std::string dump = g.to_string();
  EXPECT_NE(dump.find("input"), std::string::npos);
  EXPECT_NE(dump.find("relu"), std::string::npos);
  EXPECT_NE(dump.find("tag=act"), std::string::npos);
  EXPECT_NE(dump.find("[x-dep]"), std::string::npos);
}

// Op names land in graph::to_string and in the enclave's Jacobian records
// (shield::jacobian_record::op_name), so each one is part of the output.
TEST(Graph, OpNamesAreStable) {
  const std::pair<op_ptr, std::string_view> table[] = {
      {make_softmax_lastdim(), "softmax"},
      {make_attention_weights(0.5f), "attention_weights"},
      {make_log_softmax_lastdim(), "log_softmax"},
      {make_bmm(), "bmm"},
      {make_split_heads(2), "split_heads"},
      {make_merge_heads(2), "merge_heads"},
      {make_slice_row(0), "slice_row"},
      {make_cross_entropy(), "cross_entropy"},
      {make_layernorm_lastdim(), "layernorm"},
      {make_weight_standardize(), "weight_standardize"},
  };
  for (const auto& [oper, name] : table) EXPECT_EQ(oper->name(), name);
}

TEST(Graph, NumericJacobianOfLinearMapIsItsMatrix) {
  // J of x -> W x equals W — the §IV-B observation that forces PELTA to
  // also mask the weights of masked linear transforms.
  rng gen{21};
  const tensor w = tensor::randn(gen, {3, 3});
  const auto f = [&](const tensor& probe) {
    return ops::matmul(probe.reshape({1, 3}), ops::transpose2d(w)).reshape({3});
  };
  const tensor x = tensor::randn(gen, {3});
  const tensor jac = numeric_jacobian(f, x, 1e-2f);
  EXPECT_LT(max_rel_error(jac, w), 0.05f);
}

// ReLU backward passes g where x > 0 and writes +0 elsewhere, bit for bit:
// every pair of special values (NaN, ±0, ±Inf, ±denormal, ±normal) in the
// input and the gradient, plus a ragged random tail past any vector width.
// A NaN input is not > 0, so its gradient is +0; a NaN gradient passes
// through a positive input.
TEST(Relu, BackwardIsTheScalarSelectBitForBit) {
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            0.0f,
                            -0.0f,
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min(),
                            1.5f,
                            -2.25f};
  std::vector<float> xs, gs;
  for (const float x : specials)
    for (const float gv : specials) {
      xs.push_back(x);
      gs.push_back(gv);
    }
  rng gen{23};
  for (int i = 0; i < 37; ++i) {
    xs.push_back(gen.uniform(-1.0f, 1.0f));
    gs.push_back(gen.uniform(-1.0f, 1.0f));
  }
  const auto count = static_cast<std::int64_t>(xs.size());
  const tensor x{shape_t{count}, xs};
  const tensor g{shape_t{count}, gs};
  const op_ptr relu = make_relu();
  const std::vector<const tensor*> in{&x};
  const tensor y = relu->forward(in);
  const std::vector<tensor> grads = relu->backward(g, in, y);
  ASSERT_EQ(grads.size(), 1u);
  ASSERT_EQ(grads[0].numel(), count);
  for (std::int64_t i = 0; i < count; ++i) {
    const auto k = static_cast<std::size_t>(i);
    const float want = xs[k] > 0.0f ? gs[k] : 0.0f;
    EXPECT_EQ(0, std::memcmp(&want, &grads[0].data()[k], sizeof(float)))
        << "x=" << xs[k] << " g=" << gs[k] << " got " << grads[0][i];
  }
}

}  // namespace
}  // namespace pelta::ad
