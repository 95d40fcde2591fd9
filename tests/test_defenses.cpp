// Software-defense suite (§VII composition study): DCT codec, quantizer,
// randomization transforms, chains, the defended model, and the BPDA/EOT
// attack machinery that counters them.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>

#include "attacks/eot.h"
#include "defenses/encoding.h"
#include "defenses/quantization.h"
#include "defenses/randomization.h"
#include "models/trainer.h"
#include "models/zoo.h"
#include "tensor/ops.h"

namespace pelta::defenses {
namespace {

tensor random_image(std::uint64_t seed, std::int64_t c = 3, std::int64_t s = 16) {
  rng g{seed};
  return tensor::rand_uniform(g, {c, s, s});
}

// ---- blockwise DCT ----------------------------------------------------------

TEST(Dct, RoundTripIsExact) {
  const tensor x = random_image(7);
  const tensor back = idct2_blockwise(dct2_blockwise(x));
  for (std::int64_t i = 0; i < x.numel(); ++i) EXPECT_NEAR(back[i], x[i], 1e-5f);
}

TEST(Dct, IsUnitaryParseval) {
  const tensor x = random_image(8);
  EXPECT_NEAR(ops::norm_l2(dct2_blockwise(x)), ops::norm_l2(x), 1e-4f);
}

TEST(Dct, CompactsConstantBlockIntoDc) {
  const tensor x = tensor::full({1, 8, 8}, 0.5f);
  const tensor coef = dct2_blockwise(x);
  EXPECT_NEAR(coef.at(0, 0, 0), 0.5f * 8.0f, 1e-5f);  // DC = sum / sqrt(64)
  float off_dc = 0.0f;
  for (std::int64_t i = 1; i < coef.numel(); ++i) off_dc += std::abs(coef[i]);
  EXPECT_LT(off_dc, 1e-4f);
}

TEST(Dct, PureCosineModeMapsToSingleCoefficient) {
  // x(y,x) = basis row u=0 x column v=3 → exactly one nonzero coefficient.
  tensor x{shape_t{1, 8, 8}};
  const double pi = std::acos(-1.0);
  for (std::int64_t i = 0; i < 8; ++i)
    for (std::int64_t j = 0; j < 8; ++j)
      x.at(0, i, j) = static_cast<float>(std::cos((2.0 * j + 1.0) * 3.0 * pi / 16.0));
  const tensor coef = dct2_blockwise(x);
  std::int64_t nonzero = 0;
  for (std::int64_t i = 0; i < coef.numel(); ++i)
    if (std::abs(coef[i]) > 1e-4f) ++nonzero;
  EXPECT_EQ(nonzero, 1);
  EXPECT_GT(std::abs(coef.at(0, 0, 3)), 1.0f);
}

TEST(Dct, RejectsNonBlockableShape) {
  EXPECT_THROW(dct2_blockwise(tensor::zeros({3, 12, 12})), error);
  EXPECT_THROW(dct2_blockwise(tensor::zeros({3, 16})), error);
}

// ---- JPEG codec -------------------------------------------------------------

TEST(Jpeg, Quality100IsNearIdentity) {
  const tensor x = random_image(11);
  rng g{0};
  const tensor y100 = jpeg_codec{100}.apply(x, g);
  const tensor y10 = jpeg_codec{10}.apply(x, g);
  const float err100 = ops::norm_l2(ops::sub(y100, x));
  const float err10 = ops::norm_l2(ops::sub(y10, x));
  EXPECT_LT(err100 / ops::norm_l2(x), 0.02f);
  EXPECT_GT(err10, 4.0f * err100);
}

TEST(Jpeg, StepsGrowWithFrequencyAndShrinkWithQuality) {
  const jpeg_codec q40{40}, q80{80};
  EXPECT_GT(q40.step(7, 7), q40.step(0, 0));
  EXPECT_GT(q40.step(0, 0), q80.step(0, 0));
  EXPECT_GT(q40.step(7, 7), q80.step(7, 7));
}

TEST(Jpeg, RemovesHighFrequencyKeepsSmooth) {
  // smooth gradient + faint checkerboard (the highest 2-D frequency).
  tensor x{shape_t{1, 16, 16}};
  for (std::int64_t i = 0; i < 16; ++i)
    for (std::int64_t j = 0; j < 16; ++j)
      x.at(0, i, j) = 0.3f + 0.02f * static_cast<float>(i + j) / 30.0f +
                      0.015f * (((i + j) % 2 == 0) ? 1.0f : -1.0f);
  rng g{0};
  const tensor y = jpeg_codec{40}.apply(x, g);
  // checkerboard correlation collapses, mean brightness survives.
  float checker_in = 0.0f, checker_out = 0.0f;
  for (std::int64_t i = 0; i < 16; ++i)
    for (std::int64_t j = 0; j < 16; ++j) {
      const float sign = ((i + j) % 2 == 0) ? 1.0f : -1.0f;
      checker_in += sign * x.at(0, i, j);
      checker_out += sign * y.at(0, i, j);
    }
  EXPECT_LT(std::abs(checker_out), 0.2f * std::abs(checker_in));
  EXPECT_NEAR(ops::mean(y), ops::mean(x), 0.01f);
}

TEST(Jpeg, IdempotentAwayFromClamp) {
  rng g0{13};
  const tensor x = tensor::rand_uniform(g0, {3, 16, 16}, 0.25f, 0.75f);
  rng g{0};
  const jpeg_codec codec{40};
  const tensor once = codec.apply(x, g);
  const tensor twice = codec.apply(once, g);
  EXPECT_LT(ops::norm_linf(ops::sub(twice, once)), 2e-3f);
}

TEST(Jpeg, InvalidQualityThrows) {
  EXPECT_THROW(jpeg_codec{0}, error);
  EXPECT_THROW(jpeg_codec{101}, error);
}

// ---- quantizer --------------------------------------------------------------

TEST(Quantizer, IsIdempotent) {
  const tensor x = random_image(3);
  rng g{0};
  const bit_depth_quantizer q{4};
  const tensor once = q.apply(x, g);
  const tensor twice = q.apply(once, g);
  for (std::int64_t i = 0; i < x.numel(); ++i) EXPECT_FLOAT_EQ(twice[i], once[i]);
}

TEST(Quantizer, OutputsLieOnTheGrid) {
  const tensor x = random_image(4);
  rng g{0};
  const bit_depth_quantizer q{3};
  const tensor y = q.apply(x, g);
  std::set<float> values(y.data().begin(), y.data().end());
  EXPECT_LE(static_cast<std::int64_t>(values.size()), q.levels() + 1);
  for (float v : values) {
    const float scaled = v * static_cast<float>(q.levels());
    EXPECT_NEAR(scaled, std::round(scaled), 1e-4f);
  }
}

TEST(Quantizer, KillsSubQuantumPerturbation) {
  rng g0{5};
  const bit_depth_quantizer q{4};
  const tensor x = random_image(6);
  tensor perturbed = x;
  // stay strictly inside the rounding cell: |δ| < half quantum, away from
  // cell boundaries via a nudge toward the cell center first.
  rng g{0};
  const tensor base = q.apply(x, g);
  tensor centered = base;  // cell centers are the grid points themselves
  const float quantum = 1.0f / static_cast<float>(q.levels());
  tensor delta{centered.shape()};
  for (std::int64_t i = 0; i < delta.numel(); ++i)
    delta[i] = (g0.uniform() - 0.5f) * 0.8f * quantum;
  perturbed = ops::clamp(ops::add(centered, delta), 0.0f, 1.0f);
  const tensor after = q.apply(perturbed, g);
  for (std::int64_t i = 0; i < after.numel(); ++i)
    if (centered[i] > quantum && centered[i] < 1.0f - quantum) {
      EXPECT_FLOAT_EQ(after[i], centered[i]) << "at " << i;
    }
}

TEST(Quantizer, ValidatesBitRange) {
  EXPECT_THROW(bit_depth_quantizer{0}, error);
  EXPECT_THROW(bit_depth_quantizer{17}, error);
  EXPECT_EQ(bit_depth_quantizer{8}.levels(), 255);
}

// ---- resize / randomization ---------------------------------------------------

TEST(Resize, SameSizeIsIdentity) {
  const tensor x = random_image(21);
  const tensor y = resize_bilinear(x, 16, 16);
  for (std::int64_t i = 0; i < x.numel(); ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Resize, ConstantImageStaysConstant) {
  const tensor x = tensor::full({2, 16, 16}, 0.37f);
  const tensor y = resize_bilinear(x, 11, 9);
  for (float v : y.data()) EXPECT_NEAR(v, 0.37f, 1e-6f);
}

TEST(Resize, LinearRampIsReproducedExactly) {
  // align-corners bilinear interpolation is exact on affine images.
  tensor x{shape_t{1, 16, 16}};
  for (std::int64_t i = 0; i < 16; ++i)
    for (std::int64_t j = 0; j < 16; ++j)
      x.at(0, i, j) = 0.1f + 0.02f * static_cast<float>(i) + 0.03f * static_cast<float>(j);
  const tensor y = resize_bilinear(x, 9, 7);
  for (std::int64_t i = 0; i < 9; ++i)
    for (std::int64_t j = 0; j < 7; ++j) {
      const float sy = 15.0f / 8.0f, sx = 15.0f / 6.0f;
      EXPECT_NEAR(y.at(0, i, j),
                  0.1f + 0.02f * static_cast<float>(i) * sy + 0.03f * static_cast<float>(j) * sx,
                  1e-5f);
    }
}

TEST(RandomResizePad, KeepsShapeRangeAndMass) {
  const tensor x = random_image(30);
  const random_resize_pad d{3};
  for (std::uint64_t s = 0; s < 8; ++s) {
    rng g{s};
    const tensor y = d.apply(x, g);
    ASSERT_EQ(y.shape(), x.shape());
    EXPECT_GE(ops::min(y), 0.0f);
    EXPECT_LE(ops::max(y), 1.0f);
    // the pasted content is a resize of x: mean brightness is similar
    // (zero border can only lower it, bounded by the shrink fraction).
    EXPECT_GT(ops::mean(y), 0.5f * ops::mean(x));
  }
}

TEST(RandomResizePad, RejectsOversizedShrink) {
  EXPECT_THROW(random_resize_pad{0}, error);
  rng g{1};
  EXPECT_THROW(random_resize_pad{16}.apply(random_image(1), g), error);
}

TEST(GaussianNoise, ZeroStddevIsIdentityAndClampHolds) {
  const tensor x = random_image(31);
  rng g{9};
  const tensor same = gaussian_noise{0.0f}.apply(x, g);
  for (std::int64_t i = 0; i < x.numel(); ++i) EXPECT_FLOAT_EQ(same[i], x[i]);
  const tensor noisy = gaussian_noise{0.5f}.apply(x, g);
  EXPECT_GE(ops::min(noisy), 0.0f);
  EXPECT_LE(ops::max(noisy), 1.0f);
  EXPECT_GT(ops::norm_l2(ops::sub(noisy, x)), 0.1f);
}

// ---- chain ------------------------------------------------------------------

TEST(Chain, FlagsAndDescription) {
  const preprocessor_chain deterministic = make_chain("quantize+jpeg");
  EXPECT_FALSE(deterministic.randomized());
  EXPECT_TRUE(deterministic.shatters_gradient());
  EXPECT_EQ(deterministic.describe(), "quantize4+jpeg40");

  const preprocessor_chain randomized = make_chain("resize+noise");
  EXPECT_TRUE(randomized.randomized());
  EXPECT_FALSE(randomized.shatters_gradient());

  EXPECT_EQ(make_chain("").describe(), "none");
  EXPECT_EQ(make_chain("none").size(), 0);
  EXPECT_THROW(make_chain("foo"), error);
}

TEST(Chain, ThreeStageSpecParsesInOrder) {
  const preprocessor_chain chain = make_chain("quantize+jpeg+noise");
  ASSERT_EQ(chain.size(), 3);
  EXPECT_EQ(chain.stage(0).name(), "quantize4");
  EXPECT_EQ(chain.stage(1).name(), "jpeg40");
  EXPECT_EQ(chain.stage(2).name(), "noise");
  EXPECT_TRUE(chain.randomized());
  EXPECT_TRUE(chain.shatters_gradient());
}

TEST(Chain, AppliesStagesFrontToBack) {
  // quantize(noise(x)) != noise(quantize(x)) in general; the chain is
  // front-to-back, so "quantize" first yields grid values before noise.
  const tensor x = random_image(40);
  rng g{3};
  const tensor y = make_chain("quantize").apply(x, g);
  const bit_depth_quantizer q{4};
  rng g2{3};
  const tensor expect = q.apply(x, g2);
  for (std::int64_t i = 0; i < x.numel(); ++i) EXPECT_FLOAT_EQ(y[i], expect[i]);
}

// ---- defended model + BPDA/EOT ------------------------------------------------

struct fixture {
  data::dataset ds;
  std::unique_ptr<models::vit_model> vit;

  fixture()
      : ds{[] {
          data::dataset_config c = data::cifar10_like();
          c.classes = 4;
          c.train_per_class = 60;
          c.test_per_class = 20;
          return c;
        }()} {
    models::vit_config vc;
    vc.name = "tiny-vit";
    vc.image_size = 16;
    vc.patch_size = 4;
    vc.dim = 16;
    vc.heads = 2;
    vc.blocks = 2;
    vc.mlp_hidden = 32;
    vc.classes = 4;
    vit = std::make_unique<models::vit_model>(vc);
    models::train_config tc;
    tc.epochs = 10;
    tc.batch_size = 16;
    tc.lr = 4e-3f;
    models::train_model(*vit, ds, tc);
  }

  static const fixture& get() {
    static fixture f;
    return f;
  }
};

TEST(DefendedModel, EmptyChainMatchesBase) {
  const auto& f = fixture::get();
  const preprocessor_chain none = make_chain("");
  const defended_model dm{*f.vit, none};
  rng g{1};
  for (std::int64_t i = 0; i < 10; ++i)
    EXPECT_EQ(dm.predict_one(f.ds.test_image(i), g), models::predict_one(*f.vit, f.ds.test_image(i)));
}

TEST(DefendedModel, DeterministicChainIgnoresSeed) {
  const auto& f = fixture::get();
  const preprocessor_chain chain = make_chain("quantize");
  const defended_model dm{*f.vit, chain, 5};
  rng a{1}, b{999};
  for (std::int64_t i = 0; i < 6; ++i)
    EXPECT_EQ(dm.predict_one(f.ds.test_image(i), a), dm.predict_one(f.ds.test_image(i), b));
}

TEST(DefendedModel, QuantizeKeepsCleanAccuracyClose) {
  const auto& f = fixture::get();
  const preprocessor_chain chain = make_chain("quantize");
  const defended_model dm{*f.vit, chain};
  const float base = models::accuracy(*f.vit, f.ds.test_images(), f.ds.test_labels());
  const float defended = dm.accuracy(f.ds.test_images(), f.ds.test_labels(), 7);
  EXPECT_GT(defended, base - 0.15f);
}

TEST(DefendedOracle, DeterministicChainCollapsesEotToOnePass) {
  const auto& f = fixture::get();
  const preprocessor_chain chain = make_chain("quantize");
  auto oracle = attacks::make_defended_oracle(attacks::make_clear_oracle(*f.vit), chain,
                                              /*eot_samples=*/8, /*seed=*/3);
  const tensor x = f.ds.test_image(0);
  (void)oracle->query(x, f.ds.test_label(0));
  EXPECT_EQ(oracle->queries(), 1);  // collapsed: 8 identical draws would waste passes
}

TEST(DefendedOracle, RandomizedChainSpendsEotPasses) {
  const auto& f = fixture::get();
  const preprocessor_chain chain = make_chain("noise");
  auto oracle = attacks::make_defended_oracle(attacks::make_clear_oracle(*f.vit), chain, 4, 3);
  (void)oracle->query(f.ds.test_image(0), f.ds.test_label(0));
  EXPECT_EQ(oracle->queries(), 4);
}

TEST(DefendedOracle, EotAverageIsCloserToNoiseFreeGradient) {
  const auto& f = fixture::get();
  const tensor x = f.ds.test_image(1);
  const std::int64_t y = f.ds.test_label(1);

  auto clean = attacks::make_clear_oracle(*f.vit);
  const tensor g_ref = clean->query(x, y).gradient;

  const preprocessor_chain chain = make_chain("noise");
  double d1 = 0.0, d16 = 0.0;
  for (std::uint64_t trial = 0; trial < 4; ++trial) {
    auto one = attacks::make_defended_oracle(attacks::make_clear_oracle(*f.vit), chain, 1,
                                             trial * 2 + 1);
    auto many = attacks::make_defended_oracle(attacks::make_clear_oracle(*f.vit), chain, 16,
                                              trial * 2 + 2);
    d1 += ops::norm_l2(ops::sub(one->query(x, y).gradient, g_ref));
    d16 += ops::norm_l2(ops::sub(many->query(x, y).gradient, g_ref));
  }
  EXPECT_LT(d16, d1);
}

bool bits_equal(const tensor& a, const tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(), a.data().size() * sizeof(float)) == 0;
}

TEST(DefendedOracle, OneDrawLogitSeedMatchesInnerOnTransformedInput) {
  // Deterministic chain, one EOT draw: the wrapper is exactly "apply the
  // chain, query the inner oracle" — the average over one draw is a no-op.
  const auto& f = fixture::get();
  const preprocessor_chain chain = make_chain("quantize+jpeg");
  auto defended = attacks::make_defended_oracle(attacks::make_clear_oracle(*f.vit), chain,
                                                /*eot_samples=*/1, /*seed=*/3);
  auto inner = attacks::make_clear_oracle(*f.vit);
  const tensor x = f.ds.test_image(2);
  tensor seed{shape_t{4}};
  seed[0] = 1.0f;
  seed[2] = -0.5f;

  rng unused{0};
  const attacks::oracle_result got = defended->query_logit_seed(x, seed);
  const attacks::oracle_result want = inner->query_logit_seed(chain.apply(x, unused), seed);
  EXPECT_TRUE(bits_equal(got.gradient, want.gradient));
  EXPECT_TRUE(bits_equal(got.logits, want.logits));
  EXPECT_EQ(got.loss, want.loss);
  EXPECT_EQ(got.predicted, want.predicted);
  EXPECT_EQ(defended->queries(), 1);
}

TEST(DefendedOracle, ResetRedrawsTheShieldedInnerKernel) {
  const auto& f = fixture::get();
  const preprocessor_chain chain = make_chain("quantize");
  auto oracle = attacks::make_defended_oracle(attacks::make_shielded_oracle(*f.vit, 11), chain,
                                              1, 3);
  const tensor x = f.ds.test_image(3);
  const std::int64_t y = f.ds.test_label(3);
  const attacks::oracle_result before = oracle->query(x, y);
  rng gen{5};
  oracle->reset(gen);
  const attacks::oracle_result after = oracle->query(x, y);
  // The upsampling kernel is the only randomness: the substitute gradient
  // moves, the clear model head does not.
  EXPECT_FALSE(bits_equal(before.gradient, after.gradient));
  EXPECT_TRUE(bits_equal(before.logits, after.logits));
}

TEST(DefendedOracle, AttentionSaliencyForwardsToInnerOracle) {
  const auto& f = fixture::get();
  const preprocessor_chain chain = make_chain("quantize");
  auto defended =
      attacks::make_defended_oracle(attacks::make_clear_oracle(*f.vit), chain, 1, 3);
  auto inner = attacks::make_clear_oracle(*f.vit);
  const tensor x = f.ds.test_image(4);
  rng unused{0};
  const tensor got = defended->attention_saliency(x);
  ASSERT_EQ(got.shape(), x.shape());
  EXPECT_TRUE(bits_equal(got, inner->attention_saliency(chain.apply(x, unused))));
}

TEST(DefendedEval, CwRunsItsFullStepBudget) {
  // Success is judged by the defended model after the attack, so C&W must
  // not stop early on the EOT oracle's own prediction: every sample spends
  // one probe and one seeded query per step, plus the final check.
  const auto& f = fixture::get();
  const preprocessor_chain chain = make_chain("quantize");
  const defended_model dm{*f.vit, chain};

  attacks::defended_eval_config cfg;
  cfg.kind = attacks::attack_kind::cw;
  cfg.params = attacks::params_for_dataset("cifar10_like");
  cfg.params.cw_steps = 6;
  cfg.params.cw_step = 0.05f;  // large steps: most samples flip well before the budget
  cfg.max_samples = 8;
  cfg.seed = 79;
  const attacks::robust_eval r =
      attacks::evaluate_attack_defended(dm, f.ds, cfg, attacks::clear_oracle_factory(*f.vit));
  EXPECT_EQ(r.samples, 8);
  EXPECT_EQ(r.mean_queries, static_cast<double>(2 * cfg.params.cw_steps + 1));
}

TEST(DefendedEval, QuantizeChainPgdBpdaStillBeatsSoftwareOnlyDefense) {
  // Athalye et al.'s point, reproduced: a shattered-gradient software
  // defense alone does not survive BPDA.
  const auto& f = fixture::get();
  const preprocessor_chain chain = make_chain("quantize");
  const defended_model dm{*f.vit, chain};

  attacks::defended_eval_config cfg;
  cfg.kind = attacks::attack_kind::pgd;
  cfg.params = attacks::params_for_dataset("cifar10_like");
  cfg.max_samples = 16;
  cfg.seed = 77;
  const attacks::robust_eval r =
      attacks::evaluate_attack_defended(dm, f.ds, cfg, attacks::clear_oracle_factory(*f.vit));
  EXPECT_EQ(r.samples, 16);
  EXPECT_LT(r.robust_accuracy, 0.5f);  // the software defense falls to BPDA
}

TEST(DefendedEval, PeltaPlusSoftwareKeepsRobustAccuracyHigh) {
  const auto& f = fixture::get();
  const preprocessor_chain chain = make_chain("quantize");
  const defended_model dm{*f.vit, chain};

  attacks::defended_eval_config cfg;
  cfg.kind = attacks::attack_kind::pgd;
  cfg.params = attacks::params_for_dataset("cifar10_like");
  cfg.max_samples = 16;
  cfg.seed = 78;
  const attacks::robust_eval r =
      attacks::evaluate_attack_defended(dm, f.ds, cfg, attacks::shielded_oracle_factory(*f.vit));
  EXPECT_GT(r.robust_accuracy, 0.6f);  // PELTA's masking still holds underneath
}

}  // namespace
}  // namespace pelta::defenses
