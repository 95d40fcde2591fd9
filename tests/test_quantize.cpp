// Int8 quantized inference suite: the quantization vocabulary
// (tensor/quantized_tensor.h), the packed int8 GEMM kernel vs its frozen
// unpacked reference, the arena's aligned typed claims, the nn/compile
// fusion pass and the models/compiler calibration wrapper.
//
// Determinism posture matches test_kernels: integer-accumulation paths are
// compared with memcmp, never a tolerance — the int8 forward promises
// BITWISE identity across thread counts, batch sizes and packing paths.
// Only the fp32 dequantized logits of a whole compiled model get a
// tolerance (against the fp32 source model, whose arithmetic it replaces).
// The static initializer pins PELTA_THREADS=8 (without overriding an
// explicit environment setting) so pooled runs really cross threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "autodiff/ops_conv.h"
#include "autodiff/ops_elementwise.h"
#include "kernel_tiers.h"
#include "autodiff/ops_linalg.h"
#include "autodiff/ops_norm.h"
#include "models/compiler.h"
#include "models/ensemble.h"
#include "models/mlp.h"
#include "models/trainer.h"
#include "models/zoo.h"
#include "nn/compile.h"
#include "nn/layers.h"
#include "reference_kernels.h"
#include "tensor/kernels.h"
#include "tensor/parallel.h"
#include "tensor/quantized_tensor.h"
#include "tensor/rng.h"
#include "tensor/scratch.h"
#include "tensor/tensor.h"

namespace pelta {
namespace {

const bool k_threads_pinned = [] {
  setenv("PELTA_THREADS", "8", /*overwrite=*/0);
  return true;
}();

using ops::detail::kernel_table;
using ops::reference::reference_qgemm;  // THE frozen unpacked int8 baseline
using testing::for_each_tier;

// ---- rounding and round-trip ------------------------------------------------

TEST(Quantize, RoundNearestEvenTiesToEven) {
  EXPECT_EQ(quant::round_nearest_even(0.0f), 0);
  EXPECT_EQ(quant::round_nearest_even(2.0f), 2);
  EXPECT_EQ(quant::round_nearest_even(-2.0f), -2);
  EXPECT_EQ(quant::round_nearest_even(2.4f), 2);
  EXPECT_EQ(quant::round_nearest_even(2.6f), 3);
  // Ties go to the even neighbour, both signs.
  EXPECT_EQ(quant::round_nearest_even(0.5f), 0);
  EXPECT_EQ(quant::round_nearest_even(1.5f), 2);
  EXPECT_EQ(quant::round_nearest_even(2.5f), 2);
  EXPECT_EQ(quant::round_nearest_even(-0.5f), 0);
  EXPECT_EQ(quant::round_nearest_even(-1.5f), -2);
  EXPECT_EQ(quant::round_nearest_even(-2.5f), -2);
}

TEST(Quantize, ActivationRoundTripErrorBound) {
  rng gen{11};
  const std::int64_t n = 4096;
  std::vector<float> x(static_cast<std::size_t>(n));
  for (float& v : x) v = gen.uniform(-3.0f, 3.0f);
  const float amax = quant::absmax(x.data(), n);
  const float scale = quant::activation_scale(amax);
  std::vector<std::uint8_t> codes(x.size());
  quant::quantize_activations(x.data(), n, scale, codes.data());
  for (std::int64_t i = 0; i < n; ++i) {
    const float back = quant::dequantize_activation(codes[static_cast<std::size_t>(i)], scale);
    // In-range values round to the nearest representable multiple of scale.
    EXPECT_LE(std::fabs(back - x[static_cast<std::size_t>(i)]), 0.5f * scale + 1e-6f);
  }
  // Exact zero always lands on the exact zero code — conv spatial padding
  // depends on this.
  std::uint8_t zero_code = 0;
  const float zero = 0.0f;
  quant::quantize_activations(&zero, 1, scale, &zero_code);
  EXPECT_EQ(static_cast<std::int32_t>(zero_code), quant::k_act_zero);
}

// The activation quantizer's vector body (clamp in fp32, then round to
// nearest even) gives the scalar rule's codes — rne, then clamp to ±127,
// then +128 — on every tier, for every length (full vectors and each tail
// width), out-of-range values, ties and signed zeros.
TEST(Quantize, ActivationCodesMatchTheScalarRuleAtEveryTier) {
  rng gen{13};
  const float scale = 0.05f;
  const float inv = 1.0f / scale;
  std::vector<float> x(67);
  for (float& v : x) v = gen.uniform(-9.0f, 9.0f);  // |x / scale| up to 180: clamps
  x[0] = 0.0f;
  x[1] = -0.0f;
  x[2] = 2.5f * scale;    // ties, both signs
  x[3] = -3.5f * scale;
  x[4] = 127.5f * scale;  // just past the clamp
  x[5] = -1e4f;           // far past it
  for_each_tier([&](const kernel_table& tier) {
    for (std::size_t n = 0; n <= x.size(); ++n) {
      std::vector<std::uint8_t> got(n, 0);
      quant::quantize_activations(x.data(), static_cast<std::int64_t>(n), scale, got.data());
      for (std::size_t i = 0; i < n; ++i) {
        const std::int32_t q = std::clamp(quant::round_nearest_even(x[i] * inv),
                                          -quant::k_act_qmax, quant::k_act_qmax);
        ASSERT_EQ(static_cast<std::int32_t>(got[i]), q + quant::k_act_zero)
            << tier.name << " n=" << n << " x=" << x[i];
      }
    }
  });
}

TEST(Quantize, DegenerateRangesFallBackToScaleOne) {
  EXPECT_EQ(quant::activation_scale(0.0f), 1.0f);
  EXPECT_EQ(quant::activation_scale(-1.0f), 1.0f);
  // An all-zero weight channel gets scale 1 and all-zero codes.
  const std::vector<float> w(8, 0.0f);
  const quant::quantized_weights qw = quant::quantize_weights_kn(w.data(), 4, 2);
  EXPECT_EQ(qw.scales[0], 1.0f);
  for (const std::int8_t c : qw.codes) EXPECT_EQ(c, 0);
  for (const std::int32_t s : qw.colsums) EXPECT_EQ(s, 0);
}

// ---- weight quantization ----------------------------------------------------

TEST(Quantize, WeightScaleSelectionIsDeterministic) {
  rng gen{23};
  const std::int64_t k = 37, n = 19;
  std::vector<float> w(static_cast<std::size_t>(k * n));
  for (float& v : w) v = gen.uniform(-2.0f, 2.0f);
  const quant::quantized_weights a = quant::quantize_weights_kn(w.data(), k, n);
  const quant::quantized_weights b = quant::quantize_weights_kn(w.data(), k, n);
  ASSERT_EQ(a.codes.size(), b.codes.size());
  EXPECT_EQ(std::memcmp(a.codes.data(), b.codes.data(), a.codes.size()), 0);
  EXPECT_EQ(std::memcmp(a.packed.data(), b.packed.data(), a.packed.size()), 0);
  EXPECT_EQ(std::memcmp(a.scales.data(), b.scales.data(), a.scales.size() * sizeof(float)), 0);
  // Codes respect the 7-bit kernel contract and colsums really are the
  // column sums the -128 compensation relies on.
  for (std::int64_t j = 0; j < n; ++j) {
    std::int32_t sum = 0;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const std::int8_t c = a.codes[static_cast<std::size_t>(kk * n + j)];
      EXPECT_LE(std::abs(static_cast<int>(c)), quant::k_weight_qmax);
      sum += c;
    }
    EXPECT_EQ(sum, a.colsums[static_cast<std::size_t>(j)]);
  }
}

// ---- packed int8 GEMM vs the frozen reference -------------------------------

TEST(Qgemm, MatchesReferenceBitwiseAcrossTileGrid) {
  for_each_tier([&](const kernel_table& tier) {
    // Sizes straddle every tile boundary: register tiles (4x16), k-groups of
    // 4, the KCQ k-block (256 groups = 1024 rows is too slow for a grid, so
    // 65 covers multi-group + remainders; the k-block edge gets its own case).
    const std::int64_t sizes[] = {1, 3, 4, 5, 15, 16, 17, 33, 64, 65};
    rng gen{31};
    for (const std::int64_t m : sizes) {
      for (const std::int64_t k : sizes) {
        const std::int64_t lda = ops::detail::qgemm_row_stride(k);
        std::vector<std::uint8_t> a(static_cast<std::size_t>(m * lda), 0);
        for (std::int64_t i = 0; i < m; ++i)
          for (std::int64_t kk = 0; kk < k; ++kk)
            a[static_cast<std::size_t>(i * lda + kk)] =
                static_cast<std::uint8_t>(1 + (gen.next_u64() % 255));
        for (const std::int64_t n : sizes) {
          std::vector<std::int8_t> b(static_cast<std::size_t>(k * n));
          for (std::int8_t& v : b)
            v = static_cast<std::int8_t>(static_cast<std::int64_t>(gen.next_u64() % 127) - 63);
          std::vector<std::int8_t> packed(
              static_cast<std::size_t>(ops::detail::qgemm_packed_size(k, n)), 0);
          ops::detail::qgemm_pack_b(b.data(), k, n, packed.data());
          std::vector<std::int32_t> colsums(static_cast<std::size_t>(n), 0);
          for (std::int64_t j = 0; j < n; ++j)
            for (std::int64_t kk = 0; kk < k; ++kk)
              colsums[static_cast<std::size_t>(j)] += b[static_cast<std::size_t>(kk * n + j)];
          std::vector<std::int32_t> got(static_cast<std::size_t>(m * n), -1);
          std::vector<std::int32_t> want(static_cast<std::size_t>(m * n), -2);
          ops::detail::qgemm(a.data(), lda, packed.data(), colsums.data(), got.data(), m, k, n);
          reference_qgemm(a.data(), lda, b.data(), want.data(), m, k, n);
          ASSERT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(std::int32_t)), 0)
              << tier.name << " m=" << m << " k=" << k << " n=" << n;
        }
      }
    }
  });
}

TEST(Qgemm, MatchesReferenceAcrossKBlockBoundary) {
  for_each_tier([&](const kernel_table& tier) {
    // KCQ = 256 k-groups = 1024 depth rows per block: straddle it.
    rng gen{37};
    const std::int64_t m = 5, n = 17;
    for (const std::int64_t k : {1023LL, 1024LL, 1025LL}) {
      const std::int64_t lda = ops::detail::qgemm_row_stride(k);
      std::vector<std::uint8_t> a(static_cast<std::size_t>(m * lda), 0);
      for (std::int64_t i = 0; i < m; ++i)
        for (std::int64_t kk = 0; kk < k; ++kk)
          a[static_cast<std::size_t>(i * lda + kk)] =
              static_cast<std::uint8_t>(1 + (gen.next_u64() % 255));
      std::vector<std::int8_t> b(static_cast<std::size_t>(k * n));
      for (std::int8_t& v : b)
        v = static_cast<std::int8_t>(static_cast<std::int64_t>(gen.next_u64() % 127) - 63);
      std::vector<std::int8_t> packed(
          static_cast<std::size_t>(ops::detail::qgemm_packed_size(k, n)), 0);
      ops::detail::qgemm_pack_b(b.data(), k, n, packed.data());
      std::vector<std::int32_t> colsums(static_cast<std::size_t>(n), 0);
      for (std::int64_t j = 0; j < n; ++j)
        for (std::int64_t kk = 0; kk < k; ++kk)
          colsums[static_cast<std::size_t>(j)] += b[static_cast<std::size_t>(kk * n + j)];
      std::vector<std::int32_t> got(static_cast<std::size_t>(m * n), -1);
      std::vector<std::int32_t> want(static_cast<std::size_t>(m * n), -2);
      ops::detail::qgemm(a.data(), lda, packed.data(), colsums.data(), got.data(), m, k, n);
      reference_qgemm(a.data(), lda, b.data(), want.data(), m, k, n);
      ASSERT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(std::int32_t)), 0)
          << tier.name << " k=" << k;
    }
  });
}

TEST(Qgemm, ZeroDepthYieldsZeros) {
  std::vector<std::int32_t> out(4 * 16, 123);
  const std::vector<std::int32_t> colsums(16, 0);
  ops::detail::qgemm(nullptr, 0, nullptr, colsums.data(), out.data(), 4, 0, 16);
  for (const std::int32_t v : out) EXPECT_EQ(v, 0);
}

// ---- arena typed claims -----------------------------------------------------

TEST(ScratchArena, TypedClaimsAreAligned) {
  scratch_arena& arena = scratch_arena::local();
  {
    const scratch_typed<std::uint8_t> bytes = arena.take_typed<std::uint8_t>(13);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(bytes.data()) % scratch_arena::k_claim_alignment,
              0u);
    EXPECT_EQ(bytes.size(), 13u);
    // Nested LIFO claim of a different element type.
    const scratch_typed<std::int32_t> acc = arena.take_typed<std::int32_t>(7);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(acc.data()) % scratch_arena::k_claim_alignment,
              0u);
    acc.data()[6] = -1;
    bytes.data()[12] = 255;
  }
  // Empty claims are legal and need no arena space.
  const scratch_typed<std::int32_t> empty = arena.take_typed<std::int32_t>(0);
  EXPECT_EQ(empty.size(), 0u);
}

// ---- compile pass over a real model -----------------------------------------

tensor first_train_images(const data::dataset& ds, std::int64_t count) {
  std::vector<std::int64_t> idx(static_cast<std::size_t>(count));
  std::iota(idx.begin(), idx.end(), 0);
  return ds.gather_train(idx).images;
}

models::mlp_config small_mlp_config(std::uint64_t seed) {
  models::mlp_config c;
  c.name = "qmlp";
  c.image_size = 16;
  c.channels = 3;
  c.hidden = {48, 24};
  c.classes = 10;
  c.seed = seed;
  return c;
}

TEST(CompilePass, PlanRespectsKeepTagsAndMergesFp32Runs) {
  const models::mlp_model mlp{small_mlp_config(5)};
  rng gen{41};
  const tensor images = tensor::rand_uniform(gen, {2, 3, 16, 16});
  const models::forward_pass fp = mlp.forward(images, ad::norm_mode::eval);
  const std::vector<nn::chain_step> chain = nn::parse_chain(fp.graph, fp.input, fp.logits);
  // flatten, fc0, act0, fc1, act1, head
  ASSERT_EQ(chain.size(), 6u);
  EXPECT_EQ(chain[0].kind, nn::step_kind::reshape);
  EXPECT_EQ(chain[1].kind, nn::step_kind::linear);
  EXPECT_EQ(chain[1].param_names.size(), 2u);

  // No keep-list: flatten stays fp32, both hidden stages and the head fuse.
  const std::vector<nn::fusion_group> all = nn::plan_fusion(chain, {});
  ASSERT_EQ(all.size(), 4u);
  EXPECT_FALSE(all[0].quantize);
  EXPECT_TRUE(all[1].quantize && all[1].begin == 1 && all[1].end == 3);
  EXPECT_TRUE(all[2].quantize && all[2].begin == 3 && all[2].end == 5);
  EXPECT_TRUE(all[3].quantize && all[3].begin == 5 && all[3].end == 6);

  // Keeping the first activation fp32 merges the whole prefix into one run.
  const std::vector<nn::fusion_group> kept = nn::plan_fusion(chain, {"mlp.act0"});
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_FALSE(kept[0].quantize);
  EXPECT_EQ(kept[0].begin, 0u);
  EXPECT_EQ(kept[0].end, 3u);
  EXPECT_TRUE(kept[1].quantize);
  EXPECT_TRUE(kept[2].quantize);
}

TEST(CompilePass, DefaultPolicyKeepsShieldFrontierFp32) {
  const models::mlp_model mlp{small_mlp_config(7)};
  rng gen{43};
  const tensor calib = tensor::rand_uniform(gen, {8, 3, 16, 16});
  models::quantize_report report;
  const auto qm = models::quantize_model(mlp, calib, {}, &report);
  EXPECT_EQ(qm->name(), "qmlp+int8");
  // Frontier = mlp.act0: flatten/fc0/act0 stay fp32, fc1+act1 and head fuse.
  EXPECT_EQ(report.stages_quantized, 2u);
  EXPECT_EQ(report.kept_fp32_tags,
            (std::vector<std::string>{"mlp.flatten", "mlp.fc0", "mlp.act0"}));
  // The frontier tag must still be addressable in the compiled graph.
  const models::forward_pass fp = qm->forward(calib, ad::norm_mode::eval);
  EXPECT_NE(fp.graph.find_tag("mlp.act0"), ad::invalid_node);
}

TEST(CompilePass, FusedLogitsMatchSourceWithinDequantTolerance) {
  const models::mlp_model mlp{small_mlp_config(9)};
  rng gen{47};
  const tensor calib = tensor::rand_uniform(gen, {16, 3, 16, 16});
  const tensor images = tensor::rand_uniform(gen, {12, 3, 16, 16});
  models::quantize_options all;
  all.quantize_all = true;
  models::quantize_report report;
  const auto qm = models::quantize_model(mlp, calib, all, &report);
  EXPECT_EQ(report.stages_fp32, 1u);  // only the flatten reshape
  EXPECT_EQ(report.stages_quantized, 3u);

  const tensor want = models::predict_logits(mlp, images);
  const tensor got = models::predict_logits(*qm, images);
  ASSERT_TRUE(want.same_shape(got));
  float max_abs = 0.0f, max_diff = 0.0f;
  for (std::int64_t i = 0; i < want.numel(); ++i) {
    max_abs = std::max(max_abs, std::fabs(want[i]));
    max_diff = std::max(max_diff, std::fabs(want[i] - got[i]));
  }
  // 8-bit activations / 7-bit weights through 3 stages: a few percent of
  // the logit range, far below class-flip scale on these random nets.
  EXPECT_LE(max_diff, 0.05f * (1.0f + max_abs));
}

TEST(CompilePass, Int8PathIsBitwiseReproducible) {
  const models::mlp_model mlp{small_mlp_config(13)};
  rng gen{53};
  const tensor calib = tensor::rand_uniform(gen, {8, 3, 16, 16});
  const tensor images = tensor::rand_uniform(gen, {9, 3, 16, 16});
  const auto qa = models::quantize_model(mlp, calib);
  const auto qb = models::quantize_model(mlp, calib);
  const tensor la = models::predict_logits(*qa, images);
  const tensor lb = models::predict_logits(*qb, images);
  ASSERT_TRUE(la.same_shape(lb));
  EXPECT_EQ(std::memcmp(la.data().data(), lb.data().data(),
                        static_cast<std::size_t>(la.numel()) * sizeof(float)),
            0);
}

TEST(CompilePass, QuantizedForwardIsBatchInvariant) {
  const models::mlp_model mlp{small_mlp_config(17)};
  rng gen{59};
  const tensor calib = tensor::rand_uniform(gen, {8, 3, 16, 16});
  const tensor images = tensor::rand_uniform(gen, {11, 3, 16, 16});
  models::quantize_options all;
  all.quantize_all = true;
  const auto qm = models::quantize_model(mlp, calib, all);
  const tensor batched = models::predict_logits(*qm, images);
  const std::int64_t px = 3 * 16 * 16;
  for (std::int64_t i = 0; i < images.size(0); ++i) {
    tensor one{shape_t{1, 3, 16, 16}};
    std::memcpy(one.data().data(), images.data().data() + i * px,
                sizeof(float) * static_cast<std::size_t>(px));
    const tensor row = models::predict_logits(*qm, one);
    ASSERT_EQ(std::memcmp(row.data().data(), batched.data().data() + i * row.numel(),
                          static_cast<std::size_t>(row.numel()) * sizeof(float)),
              0)
        << "row " << i;
  }
}

TEST(CompilePass, PooledAndSerialSchedulesAreBitIdentical) {
  const models::mlp_model mlp{small_mlp_config(19)};
  rng gen{61};
  const tensor calib = tensor::rand_uniform(gen, {8, 3, 16, 16});
  // Big enough batch that quantized_stage::run really splits across the
  // pinned 8-thread pool.
  const tensor images = tensor::rand_uniform(gen, {64, 3, 16, 16});
  models::quantize_options all;
  all.quantize_all = true;
  const auto qm = models::quantize_model(mlp, calib, all);
  tensor serial;
  {
    serial_guard guard;
    serial = models::predict_logits(*qm, images);
  }
  const tensor pooled = models::predict_logits(*qm, images);
  ASSERT_TRUE(serial.same_shape(pooled));
  EXPECT_EQ(std::memcmp(serial.data().data(), pooled.data().data(),
                        static_cast<std::size_t>(serial.numel()) * sizeof(float)),
            0);
}

// ---- conv chain: batch-norm folding and straight-through backward -----------

// Chain-shaped conv victim: conv -> eval batchnorm -> relu -> global
// avgpool -> linear head. Exercises the conv im2col int8 path, BN folding
// into per-channel scales/bias, and the fused op's BPDA backward.
class tiny_conv_model final : public models::model {
public:
  explicit tiny_conv_model(std::uint64_t seed) {
    rng gen{seed};
    conv_w_ = &params_.create("tiny.conv.w", tensor::randn(gen, {6, 3, 3, 3}, 0.0f, 0.4f));
    bn_gamma_ = &params_.create("tiny.bn.gamma", tensor::rand_uniform(gen, {6}, 0.5f, 1.5f));
    bn_beta_ = &params_.create("tiny.bn.beta", tensor::rand_uniform(gen, {6}, -0.2f, 0.2f));
    head_w_ = &params_.create("tiny.head.w", tensor::randn(gen, {6, 4}, 0.0f, 0.6f));
    head_b_ = &params_.create("tiny.head.b", tensor::rand_uniform(gen, {4}, -0.1f, 0.1f));
    stats_.running_mean = tensor::zeros({6});
    stats_.running_var = tensor::ones({6});
  }

  const std::string& name() const override { return name_; }
  std::int64_t num_classes() const override { return 4; }
  models::forward_pass forward(const tensor& images, ad::norm_mode mode) const override {
    models::forward_pass fp;
    fp.input = fp.graph.add_input(images);
    ad::node_id x = fp.graph.add_transform(ad::make_conv2d(1, 1, /*with_bias=*/false),
                                           {fp.input, fp.graph.add_parameter(*conv_w_)},
                                           "tiny.conv");
    x = fp.graph.add_transform(
        ad::make_batchnorm2d(&stats_, mode),
        {x, fp.graph.add_parameter(*bn_gamma_), fp.graph.add_parameter(*bn_beta_)}, "tiny.bn");
    x = fp.graph.add_transform(ad::make_relu(), {x}, "tiny.act");
    x = fp.graph.add_transform(ad::make_global_avgpool(), {x}, "tiny.pool");
    fp.logits = fp.graph.add_transform(
        ad::make_linear(/*with_bias=*/true),
        {x, fp.graph.add_parameter(*head_w_), fp.graph.add_parameter(*head_b_)}, "tiny.head");
    return fp;
  }
  nn::param_store& params() override { return params_; }
  const nn::param_store& params() const override { return params_; }
  std::vector<std::string> shield_frontier_tags() const override { return {"tiny.act"}; }
  std::vector<ad::batchnorm_stats*> batchnorm_buffers() const override { return {&stats_}; }

private:
  std::string name_ = "tiny-conv";
  nn::param_store params_;
  ad::parameter* conv_w_ = nullptr;
  ad::parameter* bn_gamma_ = nullptr;
  ad::parameter* bn_beta_ = nullptr;
  ad::parameter* head_w_ = nullptr;
  ad::parameter* head_b_ = nullptr;
  mutable ad::batchnorm_stats stats_;
};

TEST(CompilePass, ConvBatchnormFoldingMatchesSource) {
  tiny_conv_model m{29};
  rng gen{67};
  // A train-mode pass first, so the running stats the eval fold consumes
  // are non-trivial.
  (void)m.forward(tensor::rand_uniform(gen, {16, 3, 8, 8}), ad::norm_mode::train);
  const tensor calib = tensor::rand_uniform(gen, {8, 3, 8, 8});
  const tensor images = tensor::rand_uniform(gen, {6, 3, 8, 8});
  models::quantize_options all;
  all.quantize_all = true;
  models::quantize_report report;
  const auto qm = models::quantize_model(m, calib, all, &report);
  // conv+bn+relu fuse into ONE int8 stage; pool stays fp32; head fuses.
  EXPECT_EQ(report.stages_quantized, 2u);
  EXPECT_EQ(report.quantized_tags, (std::vector<std::string>{"tiny.act", "tiny.head"}));

  const tensor want = models::predict_logits(m, images);
  const tensor got = models::predict_logits(*qm, images);
  ASSERT_TRUE(want.same_shape(got));
  float max_abs = 0.0f, max_diff = 0.0f;
  for (std::int64_t i = 0; i < want.numel(); ++i) {
    max_abs = std::max(max_abs, std::fabs(want[i]));
    max_diff = std::max(max_diff, std::fabs(want[i] - got[i]));
  }
  EXPECT_LE(max_diff, 0.05f * (1.0f + max_abs));
}

TEST(CompilePass, StraightThroughBackwardReachesTheInput) {
  tiny_conv_model m{31};
  rng gen{71};
  (void)m.forward(tensor::rand_uniform(gen, {16, 3, 8, 8}), ad::norm_mode::train);
  const tensor calib = tensor::rand_uniform(gen, {8, 3, 8, 8});
  models::quantize_options all;
  all.quantize_all = true;
  const auto qm = models::quantize_model(m, calib, all);

  const tensor x = tensor::rand_uniform(gen, {2, 3, 8, 8});
  models::forward_pass fp = qm->forward(x, ad::norm_mode::eval);
  tensor seed{fp.graph.value(fp.logits).shape()};
  seed.fill_(1.0f);
  fp.graph.backward_from(fp.logits, std::move(seed));
  ASSERT_TRUE(fp.graph.has_adjoint(fp.input));
  const tensor& g = fp.graph.adjoint(fp.input);
  EXPECT_TRUE(g.same_shape(x));
  float norm = 0.0f;
  for (std::int64_t i = 0; i < g.numel(); ++i) {
    ASSERT_TRUE(std::isfinite(g[i]));
    norm += std::fabs(g[i]);
  }
  // The BPDA surrogate must carry real signal (an all-zero gradient would
  // silently disarm every gradient attack on quantized models).
  EXPECT_GT(norm, 0.0f);
}

// ---- graphs outside the chain vocabulary ------------------------------------

// parse_chain's error text for a graph it must reject; empty when it parses.
std::string parse_error(const ad::graph& g, ad::node_id input, ad::node_id logits) {
  try {
    (void)nn::parse_chain(g, input, logits);
  } catch (const error& e) {
    return e.what();
  }
  return {};
}

TEST(CompilePass, RejectsGraphsOutsideTheChainVocabulary) {
  rng gen{73};
  nn::param_store store;
  const tensor images = tensor::rand_uniform(gen, {2, 3, 16, 16});
  const auto expect_names = [](const std::string& msg, const std::string& what) {
    EXPECT_NE(msg.find(what), std::string::npos) << "error \"" << msg << "\" lacks " << what;
  };

  // A residual branch: ResNet-56-sim's input normalization feeds both the
  // high-pass blur and the high-pass residual add.
  {
    const auto resnet = models::make_resnet56_sim(models::task_spec{});
    const models::forward_pass fp = resnet->forward(images, ad::norm_mode::eval);
    const std::string msg = parse_error(fp.graph, fp.input, fp.logits);
    expect_names(msg, "('normalize')");
    expect_names(msg, "residual branches");
  }
  // A rank-3 linear: a per-token projection on [B,T,P]. patchify is itself
  // outside the vocabulary, so a reshape (inside it) builds the tokens.
  {
    ad::graph g;
    const ad::node_id x = g.add_input(images);
    const ad::node_id tokens = g.add_transform(ad::make_reshape({2, 16, 48}), {x}, "tok.view");
    const nn::linear_layer proj{store, gen, "tok.proj", 48, 8};
    expect_names(parse_error(g, x, proj.apply(g, tokens)), "linear 'tok.proj' on a [2, 16, 48]");
  }
  // maxpool2x2, which no zoo chain emits.
  {
    ad::graph g;
    const ad::node_id x = g.add_input(images);
    const nn::conv2d_layer conv{store, gen, "pool.conv", 3, 4, 3, 1, 1, false, false};
    const ad::node_id y = g.add_transform(ad::make_maxpool2x2(), {conv.apply(g, x)}, "pool.max");
    expect_names(parse_error(g, x, y), "op 'maxpool2x2' at 'pool.max'");
  }
  // A conv whose weight is a weight_standardize transform, not a parameter.
  {
    ad::graph g;
    const ad::node_id x = g.add_input(images);
    const nn::conv2d_layer conv{store, gen, "ws.conv", 3, 4, 3, 1, 1, false, true};
    expect_names(parse_error(g, x, conv.apply(g, x)), "'conv2d' at 'ws.conv'");
  }
}

// ---- calibrated accuracy ----------------------------------------------------

TEST(CompilePass, EnsembleAccuracyDropsAtMostOnePoint) {
  data::dataset_config dc = data::cifar10_like();
  dc.classes = 4;
  dc.train_per_class = 40;
  dc.test_per_class = 25;
  const data::dataset ds{dc};

  models::train_config tc;
  tc.epochs = 8;
  tc.batch_size = 32;
  tc.lr = 3e-3f;
  tc.shards = 4;

  models::mlp_config ca = small_mlp_config(101);
  ca.hidden = {64, 32};
  ca.classes = 4;
  models::mlp_model first{ca};
  tc.seed = 211;
  (void)models::train_model(first, ds, tc);
  models::mlp_config cb = small_mlp_config(103);
  cb.hidden = {56, 28};
  cb.classes = 4;
  models::mlp_model second{cb};
  tc.seed = 223;
  (void)models::train_model(second, ds, tc);

  const tensor calib = first_train_images(ds, 64);
  const auto q_first = models::quantize_model(first, calib);
  const auto q_second = models::quantize_model(second, calib);

  const models::random_selection_ensemble fp32_ens{first, second};
  const models::random_selection_ensemble int8_ens{*q_first, *q_second};
  // Same selection seed: both policies draw the same member per sample, so
  // the comparison isolates quantization.
  rng sel_a{9001};
  rng sel_b{9001};
  const float fp32_acc = fp32_ens.accuracy(ds.test_images(), ds.test_labels(), sel_a);
  const float int8_acc = int8_ens.accuracy(ds.test_images(), ds.test_labels(), sel_b);
  EXPECT_GE(fp32_acc, 0.5f) << "victim too weak for the drop bound to mean anything";
  EXPECT_GE(int8_acc, fp32_acc - 0.01f - 1e-6f);
}

}  // namespace
}  // namespace pelta
