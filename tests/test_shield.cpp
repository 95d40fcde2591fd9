// PELTA shielding — Algorithm 1 semantics on hand-built graphs and on the
// real model families.
#include <gtest/gtest.h>

#include "autodiff/ops_conv.h"
#include "autodiff/ops_elementwise.h"
#include "autodiff/ops_linalg.h"
#include "autodiff/ops_loss.h"
#include "autodiff/ops_norm.h"
#include "models/zoo.h"
#include "shield/masked_view.h"
#include "shield/policy.h"
#include "shield/shield.h"
#include "tensor/ops.h"

namespace pelta::shield {
namespace {

// Tiny DNN mirroring §III: x -> linear(W1,b1) -> relu -> linear(W2,b2).
struct dnn_fixture {
  ad::graph g;
  ad::parameter w1{"w1", tensor::ones({3, 4})};
  ad::parameter b1{"b1", tensor::zeros({4})};
  ad::parameter w2{"w2", tensor::ones({4, 2})};
  ad::parameter b2{"b2", tensor::zeros({2})};
  ad::node_id x, l1, r1, l2;

  dnn_fixture() {
    rng gen{1};
    x = g.add_input(tensor::randn(gen, {1, 3}), "x");
    l1 = g.add_transform(ad::make_linear(true),
                         {x, g.add_parameter(w1), g.add_parameter(b1)}, "l1");
    r1 = g.add_transform(ad::make_relu(), {l1}, "r1");
    l2 = g.add_transform(ad::make_linear(true),
                         {r1, g.add_parameter(w2), g.add_parameter(b2)}, "l2");
    g.backward_from(l2, tensor::ones({1, 2}));
  }
};

TEST(Shield, MasksExactlyTheFrontierAncestry) {
  dnn_fixture f;
  const shield_report r = pelta_shield(f.g, {f.r1}, nullptr);

  EXPECT_EQ(r.masked_input, f.x);
  EXPECT_EQ(r.masked_transforms, (std::vector<ad::node_id>{f.l1, f.r1}));
  // W1 and b1 are arguments of a masked transform -> masked; W2/b2 clear.
  ASSERT_EQ(r.masked_side.size(), 2u);
  EXPECT_EQ(f.g.at(r.masked_side[0]).tag, "w1");
  EXPECT_EQ(f.g.at(r.masked_side[1]).tag, "b1");
  EXPECT_TRUE(r.is_masked(f.x));
  EXPECT_TRUE(r.is_masked(f.l1));
  EXPECT_FALSE(r.is_masked(f.l2));
}

TEST(Shield, JacobianRecordsFollowInputDependentEdges) {
  dnn_fixture f;
  const shield_report r = pelta_shield(f.g, {f.r1}, nullptr);
  // Exactly two input-dependent edges inside the masked region:
  // (x -> l1) and (l1 -> r1); parameter edges carry no Jacobian records.
  ASSERT_EQ(r.jacobians.size(), 2u);
  EXPECT_EQ(r.jacobians[0].from, f.l1);
  EXPECT_EQ(r.jacobians[0].to, f.r1);
  EXPECT_EQ(r.jacobians[0].op_name, "relu");
  EXPECT_EQ(r.jacobians[1].from, f.x);
  EXPECT_EQ(r.jacobians[1].to, f.l1);
  EXPECT_EQ(r.jacobians[1].op_name, "linear");
  EXPECT_EQ(r.jacobians[1].rows, 4);
  EXPECT_EQ(r.jacobians[1].cols, 3);
}

TEST(Shield, EnclavePlacementMatchesAccounting) {
  dnn_fixture f;
  tee::enclave e;
  const shield_report r = pelta_shield(f.g, {f.r1}, &e, "m/");
  EXPECT_EQ(e.used_bytes(), r.total_bytes());
  // Values of l1, r1; adjoints of l1, r1, x; params w1, b1 (+ adjoints).
  EXPECT_TRUE(e.contains("m/u" + std::to_string(f.l1)));
  EXPECT_TRUE(e.contains("m/u" + std::to_string(f.r1)));
  EXPECT_TRUE(e.contains("m/du" + std::to_string(f.x)));
  EXPECT_FALSE(e.contains("m/u" + std::to_string(f.l2)));
  EXPECT_EQ(r.bytes_activations, (4 + 4) * 4);     // l1 + r1 outputs [1,4]
  EXPECT_EQ(r.masked_param_scalars, 12 + 4);       // w1 + b1
}

TEST(Shield, ReportOnlyModeStoresNothing) {
  dnn_fixture f;
  const shield_report r = pelta_shield(f.g, {f.r1}, nullptr);
  EXPECT_GT(r.total_bytes(), 0);
}

TEST(Shield, FrontierValidation) {
  dnn_fixture f;
  tee::enclave e;
  EXPECT_THROW(pelta_shield(f.g, {}, &e), error);            // empty Select
  EXPECT_THROW(pelta_shield(f.g, {f.x}, &e), error);         // leaf frontier (i > l violated)
  EXPECT_THROW(pelta_shield_tags(f.g, {"nope"}, &e), error); // unknown tag
}

TEST(Shield, FrontierMustDependOnInput) {
  ad::graph g;
  ad::parameter w{"w", tensor::ones({2})};
  g.add_input(tensor::ones({2}), "x");
  const ad::node_id p = g.add_parameter(w);
  const ad::node_id t = g.add_transform(ad::make_scale(2.0f), {p}, "param_branch");
  EXPECT_THROW(pelta_shield(g, {t}, nullptr), error);
}

TEST(Shield, ParameterDerivedChainsMaskedRecursively) {
  // W -> weight_standardize -> conv (the BiT stem): masking the conv must
  // also mask the WS vertex and the raw W (§IV-B recovery argument).
  ad::graph g;
  rng gen{2};
  ad::parameter w{"w", tensor::randn(gen, {2, 3, 3, 3})};
  const ad::node_id x = g.add_input(tensor::randn(gen, {1, 3, 8, 8}), "x");
  const ad::node_id wp = g.add_parameter(w);
  const ad::node_id ws = g.add_transform(ad::make_weight_standardize(), {wp}, "ws");
  const ad::node_id conv = g.add_transform(ad::make_conv2d(1, 1, false), {x, ws}, "conv");
  g.backward_from(conv, tensor::ones({1, 2, 8, 8}));

  const shield_report r = pelta_shield(g, {conv}, nullptr);
  EXPECT_EQ(r.masked_side, (std::vector<ad::node_id>{wp, ws}));
  EXPECT_EQ(r.masked_param_scalars, w.value.numel());
}

TEST(Shield, SharedFrontierBranchesBothMasked) {
  // Two transforms consuming the input (diamond): selecting the join masks
  // both branches and records Jacobians along each edge.
  ad::graph g;
  const ad::node_id x = g.add_input(tensor::ones({4}), "x");
  const ad::node_id a = g.add_transform(ad::make_scale(2.0f), {x}, "a");
  const ad::node_id b = g.add_transform(ad::make_scale(3.0f), {x}, "b");
  const ad::node_id j = g.add_transform(ad::make_add(), {a, b}, "join");
  g.backward_from(j, tensor::ones({4}));

  const shield_report r = pelta_shield(g, {j}, nullptr);
  EXPECT_EQ(r.masked_transforms, (std::vector<ad::node_id>{a, b, j}));
  EXPECT_EQ(r.jacobians.size(), 4u);  // a->j, b->j, x->a, x->b
}

TEST(MaskedView, AccessRulesMatchThreatModel) {
  dnn_fixture f;
  const shield_report r = pelta_shield(f.g, {f.r1}, nullptr);
  const masked_view view{f.g, r};

  // The attacker's own sample stays readable; its gradient does not.
  EXPECT_NO_THROW(view.value(f.x));
  EXPECT_THROW(view.adjoint(f.x), tee::enclave_access_error);
  EXPECT_THROW(view.input_gradient(), tee::enclave_access_error);

  // Masked transforms deny both directions.
  EXPECT_THROW(view.value(f.l1), tee::enclave_access_error);
  EXPECT_THROW(view.adjoint(f.r1), tee::enclave_access_error);

  // Clear nodes behave like an open white box.
  EXPECT_NO_THROW(view.value(f.l2));
  EXPECT_NO_THROW(view.adjoint(f.l2));
}

TEST(MaskedView, ClearFrontierIsShallowestClearChild) {
  dnn_fixture f;
  const shield_report r = pelta_shield(f.g, {f.r1}, nullptr);
  const masked_view view{f.g, r};
  EXPECT_EQ(view.clear_frontier_node(), f.l2);
  // δ_{L+1} has the shape of the shallowest clear layer's output.
  EXPECT_TRUE(view.clear_adjoint().same_shape(f.g.value(f.l2)));
}

TEST(MaskedView, MaskedParamValuesDenied) {
  dnn_fixture f;
  const shield_report r = pelta_shield(f.g, {f.r1}, nullptr);
  const masked_view view{f.g, r};
  // Find the w1 parameter node: masked; w2: clear.
  EXPECT_THROW(view.value(f.g.find_tag("w1")), tee::enclave_access_error);
  EXPECT_NO_THROW(view.value(f.g.find_tag("w2")));
}

TEST(Policy, SelectFirstKTransforms) {
  dnn_fixture f;
  const auto frontier1 = select_first_k_transforms(f.g, 1);
  EXPECT_EQ(frontier1, (std::vector<ad::node_id>{f.l1}));
  const auto frontier3 = select_first_k_transforms(f.g, 3);
  EXPECT_EQ(frontier3, (std::vector<ad::node_id>{f.l2}));
  EXPECT_THROW(select_first_k_transforms(f.g, 9), error);
  EXPECT_THROW(select_first_k_transforms(f.g, 0), error);
}

TEST(Policy, SelectUpToTag) {
  dnn_fixture f;
  EXPECT_EQ(select_up_to_tag(f.g, "r1"), (std::vector<ad::node_id>{f.r1}));
  EXPECT_THROW(select_up_to_tag(f.g, "zzz"), error);
}

// ---- on the real model families (§V-A shielding setups) ---------------------

class ModelShield : public ::testing::TestWithParam<const char*> {};

TEST_P(ModelShield, FrontierShieldsAndDeniesInputGradient) {
  models::task_spec task;
  task.classes = 4;
  auto m = models::make_model(GetParam(), task);

  rng gen{3};
  const tensor image = tensor::rand_uniform(gen, {1, 3, 16, 16});
  models::forward_pass fp = m->forward(image, ad::norm_mode::eval);
  const ad::node_id labels = fp.graph.add_constant(tensor{{1}, {0.0f}});
  const ad::node_id loss =
      fp.graph.add_transform(ad::make_cross_entropy(), {fp.logits, labels}, "loss");
  fp.graph.backward(loss);

  tee::enclave enclave;
  const shield_report r =
      pelta_shield_tags(fp.graph, m->shield_frontier_tags(), &enclave, m->name() + "/");
  const masked_view view{fp.graph, r};

  EXPECT_THROW(view.input_gradient(), tee::enclave_access_error);
  EXPECT_NO_THROW(view.clear_adjoint());
  EXPECT_NO_THROW(view.value(fp.logits));   // the head stays clear
  EXPECT_NO_THROW(view.adjoint(fp.logits));
  EXPECT_GT(r.masked_param_scalars, 0);
  EXPECT_LT(r.masked_param_scalars, m->parameter_count());  // partial shield
  EXPECT_LE(enclave.used_bytes(), enclave.capacity_bytes());
}

INSTANTIATE_TEST_SUITE_P(Families, ModelShield,
                         ::testing::Values("ViT-B/16", "ResNet-56", "BiT-M-R101x3"));

TEST(ModelShieldDetail, VitClearAdjointIsTokenShaped) {
  models::task_spec task;
  task.classes = 4;
  auto vit = models::make_vit_b16_sim(task);
  rng gen{4};
  const tensor image = tensor::rand_uniform(gen, {1, 3, 16, 16});
  models::forward_pass fp = vit->forward(image, ad::norm_mode::eval);
  const ad::node_id labels = fp.graph.add_constant(tensor{{1}, {1.0f}});
  const ad::node_id loss = fp.graph.add_transform(ad::make_cross_entropy(), {fp.logits, labels});
  fp.graph.backward(loss);

  const shield_report r = pelta_shield_tags(fp.graph, vit->shield_frontier_tags(), nullptr);
  const masked_view view{fp.graph, r};
  // ViT δ_{L+1}: token-space [1, T+1, D] — spatial structure already gone
  // (the §V-C explanation of why upsampling helps less against ViT).
  EXPECT_EQ(view.clear_adjoint().ndim(), 3);
}

TEST(ModelShieldDetail, CnnClearAdjointIsSpatial) {
  models::task_spec task;
  task.classes = 4;
  auto bit = models::make_bit_r101x3_sim(task);
  rng gen{5};
  const tensor image = tensor::rand_uniform(gen, {1, 3, 16, 16});
  models::forward_pass fp = bit->forward(image, ad::norm_mode::eval);
  const ad::node_id labels = fp.graph.add_constant(tensor{{1}, {1.0f}});
  const ad::node_id loss = fp.graph.add_transform(ad::make_cross_entropy(), {fp.logits, labels});
  fp.graph.backward(loss);

  const shield_report r = pelta_shield_tags(fp.graph, bit->shield_frontier_tags(), nullptr);
  const masked_view view{fp.graph, r};
  // BiT δ_{L+1}: still [1, C, H, W] — carries the spatial information the
  // paper says average-style upsampling can partially recover.
  EXPECT_EQ(view.clear_adjoint().ndim(), 4);
  EXPECT_EQ(view.clear_adjoint().size(2), 16);
}

TEST(ModelShieldDetail, Table1OrderingVitShieldsLargerPortionThanBit) {
  models::task_spec task;
  task.classes = 4;
  auto vit = models::make_vit_l16_sim(task);
  auto bit = models::make_bit_r101x3_sim(task);
  rng gen{6};
  const tensor image = tensor::rand_uniform(gen, {1, 3, 16, 16});

  const auto portion = [&](models::model& m) {
    models::forward_pass fp = m.forward(image, ad::norm_mode::eval);
    const shield_report r = pelta_shield_tags(fp.graph, m.shield_frontier_tags(), nullptr);
    return static_cast<double>(r.masked_param_scalars) /
           static_cast<double>(m.parameter_count());
  };
  // Table I: ViT shields percents of the model, BiT shields orders of
  // magnitude less (just the stem conv).
  EXPECT_GT(portion(*vit), 10.0 * portion(*bit));
}

}  // namespace
}  // namespace pelta::shield
