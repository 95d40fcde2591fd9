// Property sweeps over the extension modules: defenses, aggregation rules,
// the model-family shield invariants, and attack-budget monotonicity.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "attacks/runner.h"
#include "autodiff/ops_loss.h"
#include "defenses/encoding.h"
#include "defenses/quantization.h"
#include "fl/aggregation.h"
#include "models/mlp.h"
#include "models/trainer.h"
#include "models/zoo.h"
#include "shield/masked_view.h"
#include "shield/shield.h"
#include "tensor/ops.h"

namespace pelta {
namespace {

// ---- quantizer sweep -----------------------------------------------------------

class QuantizerBits : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(QuantizerBits, IdempotentOnGridAndKillsSubQuantumNoise) {
  const std::int64_t bits = GetParam();
  const defenses::bit_depth_quantizer q{bits};
  rng g{static_cast<std::uint64_t>(bits)};
  const tensor x = tensor::rand_uniform(g, {3, 8, 8});
  rng unused{0};
  const tensor once = q.apply(x, unused);
  const tensor twice = q.apply(once, unused);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    ASSERT_FLOAT_EQ(twice[i], once[i]);
    // the grid error is at most half a quantum
    ASSERT_LE(std::abs(once[i] - x[i]), 0.5f / static_cast<float>(q.levels()) + 1e-6f);
  }
}

INSTANTIATE_TEST_SUITE_P(Bits, QuantizerBits, ::testing::Values(1, 2, 3, 4, 6, 8));

// ---- JPEG quality sweep ----------------------------------------------------------

TEST(JpegQualitySweep, RoundTripErrorIsMonotoneInQuality) {
  rng g{5};
  const tensor x = tensor::rand_uniform(g, {3, 16, 16}, 0.2f, 0.8f);
  rng unused{0};
  float prev_err = 1e9f;
  for (const std::int64_t q : {5, 20, 40, 60, 80, 100}) {
    const float err = ops::norm_l2(ops::sub(defenses::jpeg_codec{q}.apply(x, unused), x));
    EXPECT_LE(err, prev_err * 1.05f) << "quality " << q;  // 5% slack for rounding luck
    prev_err = err;
  }
}

// ---- shield invariants across every model family ----------------------------------

class ShieldFamilies : public ::testing::TestWithParam<int> {};

TEST_P(ShieldFamilies, FrontierMasksInputGradientAndLeavesClearAdjoint) {
  models::task_spec task;
  task.image_size = 16;
  task.channels = 3;
  task.classes = 4;
  const int idx = GetParam();
  std::unique_ptr<models::model> m;
  switch (idx) {
    case 0: m = models::make_vit_b16_sim(task); break;
    case 1: m = models::make_resnet56_sim(task); break;
    case 2: m = models::make_bit_r101x3_sim(task); break;
    default: {
      models::mlp_config c;
      c.image_size = task.image_size;
      c.classes = task.classes;
      c.hidden = {32, 16};
      m = std::make_unique<models::mlp_model>(c);
    }
  }

  rng g{7};
  const tensor image = tensor::rand_uniform(g, {3, 16, 16});
  models::forward_pass fp = m->forward(image.reshape({1, 3, 16, 16}), ad::norm_mode::eval);
  const ad::node_id labels = fp.graph.add_constant(tensor{shape_t{1}, {0.0f}});
  const ad::node_id loss =
      fp.graph.add_transform(ad::make_cross_entropy(), {fp.logits, labels}, "loss");
  fp.graph.backward(loss);

  const shield::shield_report report =
      shield::pelta_shield_tags(fp.graph, m->shield_frontier_tags(), nullptr);
  const shield::masked_view view{fp.graph, report};

  // invariant 1: dL/dx is always denied
  EXPECT_THROW((void)view.input_gradient(), tee::enclave_access_error);
  // invariant 2: the adjoint of the shallowest clear layer is available
  const tensor& delta = view.clear_adjoint();
  EXPECT_GT(delta.numel(), 0);
  // invariant 3: something parametric is inside the enclave, and the input
  // value itself (the attacker's own sample) stays readable
  EXPECT_GT(report.masked_param_scalars, 0);
  EXPECT_NO_THROW((void)view.value(fp.input));
  // invariant 4: every masked transform is input-dependent
  for (ad::node_id id : report.masked_transforms) EXPECT_TRUE(fp.graph.at(id).input_dependent);
}

std::string shield_family_name(int index) {
  switch (index) {
    case 0: return "vit";
    case 1: return "resnet";
    case 2: return "bit";
    default: return "mlp";
  }
}

INSTANTIATE_TEST_SUITE_P(Families, ShieldFamilies, ::testing::Values(0, 1, 2, 3),
                         [](const auto& info) { return shield_family_name(info.param); });

// ---- attack-budget monotonicity ----------------------------------------------------

TEST(AttackBudget, PgdSuccessIsMonotoneInEpsilon) {
  data::dataset_config dc = data::cifar10_like();
  dc.classes = 4;
  dc.train_per_class = 50;
  dc.test_per_class = 15;
  const data::dataset ds{dc};

  models::vit_config vc;
  vc.name = "tiny";
  vc.image_size = 16;
  vc.patch_size = 4;
  vc.dim = 16;
  vc.heads = 2;
  vc.blocks = 2;
  vc.mlp_hidden = 32;
  vc.classes = 4;
  models::vit_model m{vc};
  models::train_config tc;
  tc.epochs = 8;
  tc.batch_size = 16;
  models::train_model(m, ds, tc);

  float prev_success = -1.0f;
  for (const float eps : {0.004f, 0.016f, 0.062f}) {
    attacks::suite_params p = attacks::table2_cifar_params();
    p.eps = eps;
    p.eps_step = eps / 10.0f;
    const attacks::robust_eval r = attacks::evaluate_attack(
        m, ds, attacks::attack_kind::pgd, p, attacks::clear_oracle_factory(m), 20, 3);
    const float success = 1.0f - r.robust_accuracy;
    EXPECT_GE(success, prev_success - 0.05f) << "eps " << eps;  // small slack: finite N
    prev_success = success;
  }
  EXPECT_GT(prev_success, 0.8f);  // the largest ball must be devastating
}

// ---- aggregation-rule algebraic properties -------------------------------------------

byte_buffer encode_vec(std::vector<float> v) {
  byte_buffer out;
  serialize_tensor(tensor{shape_t{static_cast<std::int64_t>(v.size())}, std::move(v)}, out);
  return out;
}

class AggregationRules : public ::testing::TestWithParam<fl::aggregation_rule> {};

TEST_P(AggregationRules, InvariantUnderClientPermutation) {
  rng g{11};
  const byte_buffer ref = encode_vec({0.0f, 0.0f, 0.0f});
  std::vector<fl::model_update> updates;
  for (std::int64_t c = 0; c < 5; ++c) {
    fl::model_update u;
    u.client_id = c;
    u.sample_count = 1 + c % 3;
    u.parameters = encode_vec({g.uniform(-1, 1), g.uniform(-1, 1), g.uniform(-1, 1)});
    updates.push_back(std::move(u));
  }
  const byte_buffer forward = fl::aggregate_states(ref, updates, GetParam());
  std::reverse(updates.begin(), updates.end());
  const byte_buffer reversed = fl::aggregate_states(ref, updates, GetParam());
  // equal up to accumulation rounding (FedAvg and norm-clip sum in client order)
  std::size_t of = 0, orv = 0;
  const tensor tf = deserialize_tensor(forward, of);
  const tensor tr = deserialize_tensor(reversed, orv);
  ASSERT_TRUE(tf.same_shape(tr));
  for (std::int64_t i = 0; i < tf.numel(); ++i) EXPECT_NEAR(tf[i], tr[i], 1e-6f);
}

TEST_P(AggregationRules, IdenticalUpdatesAggregateToThemselves) {
  const byte_buffer ref = encode_vec({0.5f, -0.25f});
  std::vector<fl::model_update> updates;
  for (std::int64_t c = 0; c < 4; ++c) {
    fl::model_update u;
    u.client_id = c;
    u.sample_count = 2;
    u.parameters = encode_vec({1.5f, -2.0f});
    updates.push_back(std::move(u));
  }
  const byte_buffer out = fl::aggregate_states(ref, updates, GetParam());
  std::size_t offset = 0;
  const tensor t = deserialize_tensor(out, offset);
  EXPECT_NEAR(t[0], 1.5f, 1e-4f);
  EXPECT_NEAR(t[1], -2.0f, 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(Rules, AggregationRules,
                         ::testing::Values(fl::aggregation_rule::fedavg,
                                           fl::aggregation_rule::coordinate_median,
                                           fl::aggregation_rule::trimmed_mean,
                                           fl::aggregation_rule::norm_clipped_mean),
                         [](const auto& info) {
                           std::string name = fl::aggregation_rule_name(info.param);
                           for (char& ch : name)
                             if (ch == ' ' || ch == '-') ch = '_';
                           return name;
                         });

}  // namespace
}  // namespace pelta
