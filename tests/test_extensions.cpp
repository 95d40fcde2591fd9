// Extension features: related-work baseline shield (param-gradient
// masking), BPDA surrogate attacker, TEE attestation, FL state payloads.
#include <gtest/gtest.h>

#include "attacks/bpda.h"
#include "autodiff/ops_loss.h"
#include "models/checkpoint.h"
#include "models/trainer.h"
#include "models/zoo.h"
#include "shield/baselines.h"
#include "shield/masked_view.h"
#include "tee/attestation.h"
#include "tensor/ops.h"

namespace pelta {
namespace {

data::dataset small_dataset() {
  data::dataset_config c = data::cifar10_like();
  c.classes = 4;
  c.train_per_class = 50;
  c.test_per_class = 15;
  return data::dataset{c};
}

models::task_spec tiny_task() {
  models::task_spec t;
  t.classes = 4;
  return t;
}

// ---- param-gradient shield (DarkneTZ/PPFL/GradSec policy, §II) ---------------

TEST(ParamShield, MasksParametersButExposesInputGradient) {
  auto m = models::make_vit_b16_sim(tiny_task());
  rng gen{1};
  const tensor image = tensor::rand_uniform(gen, {1, 3, 16, 16});
  models::forward_pass fp = m->forward(image, ad::norm_mode::eval);
  const ad::node_id labels = fp.graph.add_constant(tensor{{1}, {0.0f}});
  const ad::node_id loss = fp.graph.add_transform(ad::make_cross_entropy(), {fp.logits, labels});
  fp.graph.backward(loss);

  tee::enclave enclave;
  const shield::shield_report r = shield::param_gradient_shield(fp.graph, &enclave, "pg/");
  const shield::masked_view view{fp.graph, r};

  // Every parameter masked (the inversion defense)...
  EXPECT_EQ(r.masked_param_scalars, m->parameter_count());
  EXPECT_GT(enclave.used_bytes(), 0);
  // ...but the evasion-attack quantity stays readable.
  EXPECT_TRUE(shield::input_gradient_exposed(fp.graph, r));
  EXPECT_NO_THROW(view.adjoint(fp.input));
  EXPECT_EQ(r.masked_input, ad::invalid_node);
}

TEST(ParamShield, OracleDeliversTrueGradient) {
  auto m = models::make_vit_b16_sim(tiny_task());
  const data::dataset ds = small_dataset();
  auto clear = attacks::make_clear_oracle(*m);
  auto pg = attacks::make_param_shield_oracle(*m);
  const tensor x0 = ds.test_image(0);
  const auto qc = clear->query(x0, ds.test_label(0));
  const auto qp = pg->query(x0, ds.test_label(0));
  // Identical gradients: the related-work policy does nothing for evasion.
  EXPECT_LT(ops::norm_linf(ops::sub(qc.gradient, qp.gradient)), 1e-6f);
}

TEST(ParamShield, PgdSucceedsDespiteParamShield) {
  const data::dataset ds = small_dataset();
  auto m = models::make_vit_b16_sim(tiny_task());
  models::train_config tc;
  tc.epochs = 8;
  tc.lr = 3e-3f;
  models::train_model(*m, ds, tc);

  const attacks::suite_params p = attacks::table2_cifar_params();
  const models::model* mp = m.get();
  const attacks::oracle_factory pg_factory = [mp](std::uint64_t) {
    return attacks::make_param_shield_oracle(*mp);
  };
  const attacks::robust_eval under_pg =
      attacks::evaluate_attack(*m, ds, attacks::attack_kind::pgd, p, pg_factory, 20, 3);
  const attacks::robust_eval under_pelta = attacks::evaluate_attack(
      *m, ds, attacks::attack_kind::pgd, p, attacks::shielded_oracle_factory(*m), 20, 3);
  // The paper's §II claim, measured: param-gradient shielding leaves the
  // model as attackable as the open white box; PELTA does not.
  EXPECT_LE(under_pg.robust_accuracy, 0.2f);
  EXPECT_GT(under_pelta.robust_accuracy, under_pg.robust_accuracy + 0.4f);
}

// ---- BPDA surrogate attacker (§IV-C) -------------------------------------------

TEST(Bpda, SurrogateDistillsFromVictimLogits) {
  const data::dataset ds = small_dataset();
  auto victim = models::make_vit_b16_sim(tiny_task());
  models::train_config tc;
  tc.epochs = 8;
  tc.lr = 3e-3f;
  models::train_model(*victim, ds, tc);

  attacks::surrogate_config sc;
  sc.architecture = "ViT-B/16";
  sc.epochs = 6;
  sc.seed = 777;  // different init than the victim
  const attacks::surrogate_result r = attacks::train_surrogate(*victim, ds, sc);
  ASSERT_NE(r.surrogate, nullptr);
  EXPECT_EQ(r.label_queries, ds.train_size());
  EXPECT_GT(r.agreement, 0.8f) << "distillation should track the victim";

  // Different initialization — genuinely different parameters.
  const tensor& vw = victim->params().get("head.w").value;
  const tensor& sw = r.surrogate->params().get("head.w").value;
  EXPECT_GT(ops::norm_linf(ops::sub(vw, sw)), 1e-3f);
}

TEST(Bpda, TransferAttackBeatsUpsamplingButCostsTraining) {
  const data::dataset ds = small_dataset();
  auto victim = models::make_vit_b16_sim(tiny_task());
  models::train_config tc;
  tc.epochs = 8;
  tc.lr = 3e-3f;
  models::train_model(*victim, ds, tc);

  attacks::surrogate_config sc;
  sc.architecture = "ViT-B/16";
  sc.epochs = 6;
  sc.seed = 778;
  const attacks::surrogate_result sr = attacks::train_surrogate(*victim, ds, sc);

  const attacks::suite_params p = attacks::table2_cifar_params();
  const attacks::robust_eval transfer =
      attacks::evaluate_transfer_attack(*victim, *sr.surrogate, ds, p, 20, 5);
  const attacks::robust_eval upsampling = attacks::evaluate_attack(
      *victim, ds, attacks::attack_kind::pgd, p, attacks::shielded_oracle_factory(*victim), 20,
      5);
  // Athalye et al.'s point, quantified: a trained approximation recovers
  // attack success that random upsampling cannot...
  EXPECT_LT(transfer.robust_accuracy, upsampling.robust_accuracy);
  // ...while the attacker had to spend a full training run + label queries.
  EXPECT_EQ(sr.label_queries, ds.train_size());
}

// ---- attestation ---------------------------------------------------------------

TEST(Attestation, QuoteVerifiesAgainstMatchingState) {
  tee::enclave e;
  e.store("w", tensor::ones({4}));
  const std::uint64_t nonce = 0x1234;
  const tee::quote q = tee::issue_quote(e, nonce);
  EXPECT_TRUE(tee::verify_quote(q, e.measurement(), nonce));
}

TEST(Attestation, RejectsWrongNonceOrMeasurementOrForgery) {
  tee::enclave e;
  e.store("w", tensor::ones({4}));
  const tee::quote q = tee::issue_quote(e, 7);
  EXPECT_FALSE(tee::verify_quote(q, e.measurement(), 8));        // replayed nonce
  EXPECT_FALSE(tee::verify_quote(q, e.measurement() ^ 1, 7));    // wrong state
  tee::quote forged = q;
  forged.measurement ^= 1;                                        // tampered quote
  EXPECT_FALSE(tee::verify_quote(forged, forged.measurement, 7));
}

TEST(Attestation, QuoteTracksEnclaveContents) {
  tee::enclave e;
  const tee::quote before = tee::issue_quote(e, 1);
  e.store("w", tensor::ones({4}));
  const tee::quote after = tee::issue_quote(e, 1);
  EXPECT_NE(before.measurement, after.measurement);
}

// ---- FL state payloads (BN buffers on the wire) --------------------------------

TEST(FlState, SnapshotRoundTripsParamsOnly) {
  auto a = models::make_vit_b16_sim(tiny_task());
  auto b = models::make_vit_b16_sim(tiny_task());
  rng gen{2};
  a->params().get("head.w").value = tensor::randn(gen, {32, 4});
  models::load_state(*b, models::save_state(*a));
  EXPECT_LT(ops::norm_linf(ops::sub(a->params().get("head.w").value,
                                    b->params().get("head.w").value)),
            1e-7f);
}

TEST(FlState, SnapshotCarriesBatchnormBuffers) {
  models::task_spec t = tiny_task();
  auto a = models::make_resnet56_sim(t);
  auto b = models::make_resnet56_sim(t);
  ASSERT_FALSE(a->batchnorm_buffers().empty());

  // Mutate a's running stats (as local training would).
  a->batchnorm_buffers()[0]->running_mean.fill_(0.7f);
  a->batchnorm_buffers()[0]->running_var.fill_(2.5f);
  models::load_state(*b, models::save_state(*a));
  EXPECT_FLOAT_EQ(b->batchnorm_buffers()[0]->running_mean[0], 0.7f);
  EXPECT_FLOAT_EQ(b->batchnorm_buffers()[0]->running_var[0], 2.5f);
}

TEST(FlState, BitHasNoBatchnormState) {
  auto bit = models::make_bit_r101x3_sim(tiny_task());
  EXPECT_TRUE(bit->batchnorm_buffers().empty());  // GroupNorm: stateless
}

TEST(FlState, InstallRejectsTruncatedPayload) {
  auto a = models::make_resnet56_sim(tiny_task());
  byte_buffer buf = models::save_state(*a);
  buf.resize(buf.size() - 8);
  EXPECT_THROW(models::load_state(*a, buf), error);
}

}  // namespace
}  // namespace pelta
