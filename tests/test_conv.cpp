// Convolution / pooling kernels, including backward-vs-finite-difference
// and bit pins of both conv backward passes against their frozen loops.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "autodiff/gradcheck.h"
#include "kernel_tiers.h"
#include "reference_kernels.h"
#include "tensor/conv.h"
#include "tensor/kernels.h"  // detail::fmadd — the accumulation-policy reference
#include "tensor/ops.h"
#include "tensor/parallel.h"

namespace pelta {
namespace {

// Pins PELTA_THREADS=8 (without overriding an explicit environment setting)
// so the pooled runs of the bit pins really cross threads.
const bool k_threads_pinned = [] {
  setenv("PELTA_THREADS", "8", /*overwrite=*/0);
  return true;
}();

TEST(Conv2d, IdentityKernelReproducesInput) {
  rng g{1};
  tensor x = tensor::randn(g, {1, 1, 5, 5});
  tensor w = tensor::zeros({1, 1, 3, 3});
  w.at(0, 0, 1, 1) = 1.0f;  // delta kernel
  tensor y = ops::conv2d(x, w, tensor{shape_t{0}}, 1, 1);
  ASSERT_EQ(y.shape(), x.shape());
  for (std::int64_t i = 0; i < x.numel(); ++i) EXPECT_NEAR(y[i], x[i], 1e-6f);
}

TEST(Conv2d, KnownValue) {
  // 2x2 input, 2x2 all-ones kernel, no padding -> single sum.
  tensor x{{1, 1, 2, 2}, {1, 2, 3, 4}};
  tensor w = tensor::ones({1, 1, 2, 2});
  tensor y = ops::conv2d(x, w, tensor{shape_t{0}}, 1, 0);
  EXPECT_EQ(y.shape(), (shape_t{1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(y[0], 10.0f);
}

TEST(Conv2d, BiasIsAdded) {
  tensor x = tensor::zeros({1, 2, 3, 3});
  tensor w = tensor::zeros({4, 2, 3, 3});
  tensor b{{4}, {1, 2, 3, 4}};
  tensor y = ops::conv2d(x, w, b, 1, 1);
  EXPECT_EQ(y.shape(), (shape_t{1, 4, 3, 3}));
  EXPECT_FLOAT_EQ(y.at(0, 2, 1, 1), 3.0f);
}

TEST(Conv2d, StrideReducesResolution) {
  rng g{2};
  tensor x = tensor::randn(g, {2, 3, 8, 8});
  tensor w = tensor::randn(g, {5, 3, 3, 3});
  tensor y = ops::conv2d(x, w, tensor{shape_t{0}}, 2, 1);
  EXPECT_EQ(y.shape(), (shape_t{2, 5, 4, 4}));
}

TEST(Conv2d, ChannelMismatchThrows) {
  tensor x = tensor::zeros({1, 3, 4, 4});
  tensor w = tensor::zeros({2, 4, 3, 3});
  EXPECT_THROW(ops::conv2d(x, w, tensor{shape_t{0}}, 1, 1), error);
}

TEST(Conv2d, BackwardInputMatchesFiniteDifference) {
  rng g{3};
  const tensor x = tensor::randn(g, {1, 2, 4, 4});
  const tensor w = tensor::randn(g, {3, 2, 3, 3});
  const tensor seed = tensor::randn(g, {1, 3, 4, 4});

  const auto f = [&](const tensor& probe) {
    return ops::dot(ops::conv2d(probe, w, tensor{shape_t{0}}, 1, 1), seed);
  };
  const tensor numeric = ad::numeric_grad(f, x, 1e-2f);
  const tensor analytic = ops::conv2d_backward_input(seed, w, 1, 1, x.shape());
  EXPECT_LT(ad::max_rel_error(analytic, numeric), 0.05f);
}

TEST(Conv2d, BackwardWeightMatchesFiniteDifference) {
  rng g{4};
  const tensor x = tensor::randn(g, {1, 2, 4, 4});
  const tensor w = tensor::randn(g, {3, 2, 3, 3});
  const tensor seed = tensor::randn(g, {1, 3, 4, 4});

  const auto f = [&](const tensor& probe) {
    return ops::dot(ops::conv2d(x, probe, tensor{shape_t{0}}, 1, 1), seed);
  };
  const tensor numeric = ad::numeric_grad(f, w, 1e-2f);
  const tensor analytic = ops::conv2d_backward_weight(seed, x, 1, 1, w.shape());
  EXPECT_LT(ad::max_rel_error(analytic, numeric), 0.05f);
}

TEST(Conv2d, BackwardBiasSumsOverSpatialAndBatch) {
  tensor go = tensor::ones({2, 3, 4, 4});
  tensor gb = ops::conv2d_backward_bias(go);
  EXPECT_EQ(gb.shape(), (shape_t{3}));
  for (std::int64_t i = 0; i < 3; ++i) EXPECT_FLOAT_EQ(gb[i], 32.0f);
}

TEST(Conv2d, BackwardBiasIsExactAcrossLargeBatchCancellation) {
  // Regression for the per-image float re-narrowing the R1 lint rule
  // surfaced: summing each image in double but folding into grad_b in float
  // lost small contributions between large cancelling ones across the
  // batch ({2^25, 1, -2^25} summed that way yields 0). One double
  // accumulator per channel across the whole batch keeps the exact 1.
  tensor go{{3, 1, 1, 1}, {33554432.0f, 1.0f, -33554432.0f}};
  tensor gb = ops::conv2d_backward_bias(go);
  ASSERT_EQ(gb.shape(), (shape_t{1}));
  EXPECT_FLOAT_EQ(gb[0], 1.0f);
}

TEST(Conv2d, StridedBackwardMatchesFiniteDifference) {
  rng g{5};
  const tensor x = tensor::randn(g, {1, 2, 6, 6});
  const tensor w = tensor::randn(g, {3, 2, 3, 3});
  const tensor seed = tensor::randn(g, {1, 3, 3, 3});
  const auto f = [&](const tensor& probe) {
    return ops::dot(ops::conv2d(probe, w, tensor{shape_t{0}}, 2, 1), seed);
  };
  const tensor numeric = ad::numeric_grad(f, x, 1e-2f);
  const tensor analytic = ops::conv2d_backward_input(seed, w, 2, 1, x.shape());
  EXPECT_LT(ad::max_rel_error(analytic, numeric), 0.05f);
}

// The per-element branchy col2im that conv2d_backward_input's windowed
// scatter replaced, frozen: every image element gets its adds from the
// (ci, ky, kx) rows in this serial order.
void frozen_col2im(const float* cols, float* img, std::int64_t c, std::int64_t h, std::int64_t w,
                   std::int64_t kh, std::int64_t kw, std::int64_t stride, std::int64_t pad,
                   std::int64_t oh, std::int64_t ow) {
  const std::int64_t spatial = oh * ow;
  std::int64_t row = 0;
  for (std::int64_t ci = 0; ci < c; ++ci)
    for (std::int64_t ky = 0; ky < kh; ++ky)
      for (std::int64_t kx = 0; kx < kw; ++kx, ++row) {
        const float* src = cols + row * spatial;
        for (std::int64_t y = 0; y < oh; ++y) {
          const std::int64_t iy = y * stride - pad + ky;
          if (iy < 0 || iy >= h) continue;
          float* dst = img + (ci * h + iy) * w;
          for (std::int64_t x = 0; x < ow; ++x) {
            const std::int64_t ix = x * stride - pad + kx;
            if (ix >= 0 && ix < w) dst[ix] += src[y * ow + x];
          }
        }
      }
}

// conv2d_backward_input == Wᵀ x grad_out through the frozen reference GEMM,
// then the frozen col2im, bit for bit: strides, paddings (pad >= kernel
// included, where whole taps fall in the padding) and kernels, on images
// from the smallest that gives a 1-pixel output upwards.
TEST(Conv2d, BackwardInputBitEqualsFrozenCol2im) {
  rng g{12};
  const std::int64_t b = 2, c = 2, oc = 3;
  for (const std::int64_t stride : {1, 2, 3})
    for (const std::int64_t pad : {0, 1, 2})
      for (const std::int64_t k : {1, 2, 3, 5}) {
        const std::int64_t smallest = std::max<std::int64_t>(1, k - 2 * pad);
        for (const std::int64_t h : {smallest, smallest + 1, smallest + stride, std::int64_t{9}})
          for (const std::int64_t w : {smallest, std::int64_t{8}}) {
            const std::int64_t oh = (h + 2 * pad - k) / stride + 1;
            const std::int64_t ow = (w + 2 * pad - k) / stride + 1;
            tensor weight = tensor::randn(g, {oc, c, k, k});
            weight[0] = 0.0f;  // a zero weight: the GEMM's zero-skip gate opens
            const tensor grad_out = tensor::randn(g, {b, oc, oh, ow});
            const tensor got =
                ops::conv2d_backward_input(grad_out, weight, stride, pad, {b, c, h, w});

            const std::int64_t krows = c * k * k, spatial = oh * ow;
            std::vector<float> wt_t(static_cast<std::size_t>(krows * oc));
            for (std::int64_t o = 0; o < oc; ++o)
              for (std::int64_t r = 0; r < krows; ++r)
                wt_t[static_cast<std::size_t>(r * oc + o)] = weight[o * krows + r];
            tensor want{shape_t{b, c, h, w}};
            for (std::int64_t n = 0; n < b; ++n) {
              std::vector<float> cols(static_cast<std::size_t>(krows * spatial), 0.0f);
              ops::reference::reference_gemm(wt_t.data(),
                                             grad_out.data().data() + n * oc * spatial,
                                             cols.data(), krows, oc, spatial);
              frozen_col2im(cols.data(), want.data().data() + n * c * h * w, c, h, w, k, k,
                            stride, pad, oh, ow);
            }
            ASSERT_EQ(0, std::memcmp(got.data().data(), want.data().data(),
                                     static_cast<std::size_t>(want.numel()) * sizeof(float)))
                << "stride=" << stride << " pad=" << pad << " k=" << k << " h=" << h
                << " w=" << w;
          }
      }
}

// The per-element branchy im2col that the weight gradient ran on every
// image, frozen: row (ci, ky, kx) of the [C*KH*KW, OH*OW] column matrix.
void frozen_im2col(const float* img, float* cols, std::int64_t c, std::int64_t h, std::int64_t w,
                   std::int64_t kh, std::int64_t kw, std::int64_t stride, std::int64_t pad,
                   std::int64_t oh, std::int64_t ow) {
  std::int64_t row = 0;
  for (std::int64_t ci = 0; ci < c; ++ci)
    for (std::int64_t ky = 0; ky < kh; ++ky)
      for (std::int64_t kx = 0; kx < kw; ++kx, ++row)
        for (std::int64_t y = 0; y < oh; ++y)
          for (std::int64_t x = 0; x < ow; ++x) {
            const std::int64_t iy = y * stride - pad + ky, ix = x * stride - pad + kx;
            cols[row * oh * ow + y * ow + x] =
                (iy < 0 || iy >= h || ix < 0 || ix >= w) ? 0.0f : img[(ci * h + iy) * w + ix];
          }
}

// conv2d_backward_weight == the per-image loop it replaced, bit for bit:
// frozen im2col, then grad_out x colsᵀ through the frozen transposed-B
// reference GEMM (the contract gemm_accumulate_bt keeps), accumulating
// every image into one grad_w. Zeros planted in grad_out open the GEMM's
// zero-skip gate; a NaN or Inf pixel in the image closes it wherever a tap
// reads that pixel. Every kernel tier, serial and at the pool width, over
// the stride x pad x kernel x size grid of the col2im pin plus a kh != kw
// kernel.
TEST(Conv2d, BackwardWeightBitEqualsFrozenBtPath) {
  rng g{13};
  const std::int64_t b = 2, c = 2, oc = 3;
  struct geometry {
    std::int64_t stride, pad, kh, kw, h, w;
  };
  std::vector<geometry> grid;
  for (const std::int64_t stride : {1, 2, 3})
    for (const std::int64_t pad : {0, 1, 2})
      for (const std::int64_t k : {1, 2, 3, 5}) {
        const std::int64_t smallest = std::max<std::int64_t>(1, k - 2 * pad);
        for (const std::int64_t h : {smallest, smallest + 1, smallest + stride, std::int64_t{9}})
          for (const std::int64_t w : {smallest, std::int64_t{8}})
            grid.push_back({stride, pad, k, k, h, w});
      }
  grid.push_back({1, 1, 3, 1, 6, 7});
  grid.push_back({2, 1, 2, 5, 7, 9});

  const float poisons[] = {0.0f, std::numeric_limits<float>::quiet_NaN(),
                           std::numeric_limits<float>::infinity()};
  testing::for_each_tier([&](const ops::detail::kernel_table& tier) {
    for (const geometry& gm : grid)
      for (const float poison : poisons) {
        const std::int64_t oh = (gm.h + 2 * gm.pad - gm.kh) / gm.stride + 1;
        const std::int64_t ow = (gm.w + 2 * gm.pad - gm.kw) / gm.stride + 1;
        tensor input = tensor::randn(g, {b, c, gm.h, gm.w});
        if (poison != 0.0f) input[input.numel() / 2] = poison;  // one pixel of image 1
        tensor grad_out = tensor::randn(g, {b, oc, oh, ow});
        for (std::int64_t i = 0; i < grad_out.numel(); i += 3) grad_out[i] = 0.0f;

        const std::int64_t krows = c * gm.kh * gm.kw, spatial = oh * ow;
        tensor want{shape_t{oc, c, gm.kh, gm.kw}};
        std::vector<float> cols(static_cast<std::size_t>(krows * spatial)), bt_storage;
        for (std::int64_t n = 0; n < b; ++n) {
          frozen_im2col(input.data().data() + n * c * gm.h * gm.w, cols.data(), c, gm.h, gm.w,
                        gm.kh, gm.kw, gm.stride, gm.pad, oh, ow);
          ops::reference::reference_gemm_bt(grad_out.data().data() + n * oc * spatial,
                                            cols.data(), want.data().data(), oc, spatial, krows,
                                            bt_storage);
        }
        const auto check = [&](const char* width) {
          const tensor got = ops::conv2d_backward_weight(grad_out, input, gm.stride, gm.pad,
                                                         want.shape());
          ASSERT_EQ(0, std::memcmp(got.data().data(), want.data().data(),
                                   static_cast<std::size_t>(want.numel()) * sizeof(float)))
              << tier.name << " " << width << " stride=" << gm.stride << " pad=" << gm.pad
              << " k=" << gm.kh << "x" << gm.kw << " h=" << gm.h << " w=" << gm.w
              << " poison=" << poison;
        };
        {
          serial_guard guard;
          check("serial");
        }
        check("pooled");
        if (::testing::Test::HasFatalFailure()) return;
      }
  });
}

// The transposed convolution the shielded oracle lifts adjoints with runs
// on two kernels: conv2d_backward_input when the stride equals the kernel
// (pad 0), conv2d over reference::flip_kernel at stride 1. The frozen
// scatter, reference::reference_conv2d_transpose, is what both must equal.
bool same_bits(const tensor& a, const tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

TEST(ConvTranspose, UpsamplesGeometry) {
  rng g{6};
  tensor x = tensor::randn(g, {1, 4, 4, 4});
  tensor w = tensor::randn(g, {4, 3, 4, 4});
  tensor y = ops::conv2d_backward_input(x, w, 4, 0, {1, 3, 16, 16});
  EXPECT_EQ(y.shape(), (shape_t{1, 3, 16, 16}));
  EXPECT_TRUE(same_bits(y, ops::reference::reference_conv2d_transpose(x, w, 4, 0)));
}

TEST(ConvTranspose, Stride1KeepsShapeWithPad1Kernel3) {
  rng g{7};
  tensor x = tensor::randn(g, {1, 5, 8, 8});
  tensor w = tensor::randn(g, {5, 3, 3, 3});
  tensor y = ops::conv2d(x, ops::reference::flip_kernel(w), tensor{shape_t{0}}, 1, 1);
  EXPECT_EQ(y.shape(), (shape_t{1, 3, 8, 8}));
  EXPECT_TRUE(same_bits(y, ops::reference::reference_conv2d_transpose(x, w, 1, 1)));
}

TEST(ConvTranspose, IsAdjointOfConv) {
  // <conv(x), y> == <x, conv_transpose(y)> for matching geometry.
  rng g{8};
  const tensor x = tensor::randn(g, {1, 2, 6, 6});
  const tensor w = tensor::randn(g, {3, 2, 3, 3});  // conv weight [OC,C,KH,KW]
  const tensor y = tensor::randn(g, {1, 3, 6, 6});

  const tensor cx = ops::conv2d(x, w, tensor{shape_t{0}}, 1, 1);
  // The conv weight [OC,C,KH,KW] reinterpreted as a transposed-conv weight
  // [C'=OC, OC'=C, KH, KW] yields the exact adjoint.
  const tensor ty = ops::conv2d(y, ops::reference::flip_kernel(w), tensor{shape_t{0}}, 1, 1);
  EXPECT_NEAR(ops::dot(cx, y), ops::dot(x, ty), 1e-3f);
}

TEST(ConvTranspose, FollowsTheFmaddPolicy) {
  // The frozen scatter must round exactly like ops::detail::fmadd in its
  // loop order (R1): a raw `out += v * w` would let -ffp-contract fuse it
  // on FMA targets, making the reference round differently per build flag
  // while the kernels it pins stay on the policy.
  rng g{11};
  const tensor x = tensor::randn(g, {1, 2, 2, 2});
  const tensor w = tensor::randn(g, {2, 2, 2, 2});  // [C, OC, KH, KW]
  const tensor y = ops::reference::reference_conv2d_transpose(x, w, 1, 0);
  ASSERT_EQ(y.shape(), (shape_t{1, 2, 3, 3}));

  tensor expect = tensor::zeros(y.shape());
  for (std::int64_t ci = 0; ci < 2; ++ci)
    for (std::int64_t iy = 0; iy < 2; ++iy)
      for (std::int64_t ix = 0; ix < 2; ++ix) {
        const float v = x.at(0, ci, iy, ix);
        for (std::int64_t o = 0; o < 2; ++o)
          for (std::int64_t ky = 0; ky < 2; ++ky)
            for (std::int64_t kx = 0; kx < 2; ++kx)
              expect.at(0, o, iy + ky, ix + kx) = ops::detail::fmadd(
                  v, w.at(ci, o, ky, kx), expect.at(0, o, iy + ky, ix + kx));
      }
  for (std::int64_t i = 0; i < y.numel(); ++i) EXPECT_EQ(y[i], expect[i]);
}

TEST(MaxPool, ForwardAndIndices) {
  tensor x{{1, 1, 2, 2}, {1, 5, 3, 2}};
  auto r = ops::maxpool2x2(x);
  EXPECT_EQ(r.output.shape(), (shape_t{1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(r.output[0], 5.0f);
  EXPECT_FLOAT_EQ(r.indices[0], 1.0f);
}

TEST(MaxPool, BackwardRoutesToArgmax) {
  tensor x{{1, 1, 2, 2}, {1, 5, 3, 2}};
  auto r = ops::maxpool2x2(x);
  tensor go = tensor::full({1, 1, 1, 1}, 2.0f);
  tensor gi = ops::maxpool2x2_backward(go, r.indices, x.shape());
  EXPECT_FLOAT_EQ(gi[0], 0.0f);
  EXPECT_FLOAT_EQ(gi[1], 2.0f);
}

// Windows with no element above -1e30 (all -Inf, all NaN, all at -3e38)
// still output their own maximum and route their gradient to one of their
// own elements; a NaN anywhere in a window reaches the output.
TEST(MaxPool, NonFiniteWindowsStayInTheirWindow) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // Two images [1, 4, 2]: windows hold columns {0,1} and {2,3} of both rows.
  const tensor x{{2, 1, 2, 4},
                 {1.0f, 2.0f, -3e38f, -2e38f,  // image 0: finite | at -3e38 and -2e38
                  3.0f, nan, -3e38f, -3e38f,   //          NaN in a finite window
                  -inf, -inf, nan, nan,        // image 1: all -Inf | all NaN
                  -inf, -inf, nan, nan}};
  const auto r = ops::maxpool2x2(x);
  ASSERT_EQ(r.output.shape(), (shape_t{2, 1, 1, 2}));
  EXPECT_TRUE(std::isnan(r.output[0]));
  EXPECT_EQ(r.indices[0], 5.0f);
  EXPECT_EQ(r.output[1], -2e38f);
  EXPECT_EQ(r.indices[1], 3.0f);
  EXPECT_EQ(r.output[2], -inf);
  EXPECT_EQ(r.indices[2], 8.0f);
  EXPECT_TRUE(std::isnan(r.output[3]));
  EXPECT_EQ(r.indices[3], 10.0f);

  const tensor go{{2, 1, 1, 2}, {1.0f, 2.0f, 3.0f, 4.0f}};
  const tensor gi = ops::maxpool2x2_backward(go, r.indices, x.shape());
  const float want[] = {0, 0, 0, 2, 0, 1, 0, 0, 3, 0, 4, 0, 0, 0, 0, 0};
  for (std::int64_t i = 0; i < gi.numel(); ++i) EXPECT_EQ(gi[i], want[i]) << "i=" << i;
}

TEST(MaxPool, OddSpatialThrows) {
  EXPECT_THROW(ops::maxpool2x2(tensor::zeros({1, 1, 3, 4})), error);
}

TEST(GlobalAvgPool, ForwardBackward) {
  tensor x{{1, 2, 2, 2}, {1, 2, 3, 4, 10, 20, 30, 40}};
  tensor y = ops::global_avgpool(x);
  EXPECT_EQ(y.shape(), (shape_t{1, 2}));
  EXPECT_FLOAT_EQ(y.at(0, 0), 2.5f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 25.0f);

  tensor go{{1, 2}, {4.0f, 8.0f}};
  tensor gi = ops::global_avgpool_backward(go, x.shape());
  EXPECT_FLOAT_EQ(gi[0], 1.0f);
  EXPECT_FLOAT_EQ(gi[4], 2.0f);
}

TEST(Upsample, FactorOneIsIdentity) {
  rng g{9};
  tensor x = tensor::randn(g, {3, 4, 4});
  tensor y = ops::upsample_bilinear(x, 1);
  for (std::int64_t i = 0; i < x.numel(); ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Upsample, ConstantStaysConstant) {
  tensor x = tensor::full({2, 3, 3}, 0.7f);
  tensor y = ops::upsample_bilinear(x, 4);
  EXPECT_EQ(y.shape(), (shape_t{2, 12, 12}));
  for (float v : y.data()) EXPECT_NEAR(v, 0.7f, 1e-6f);
}

TEST(Upsample, BatchedInput) {
  rng g{10};
  tensor x = tensor::randn(g, {2, 3, 4, 4});
  tensor y = ops::upsample_bilinear(x, 2);
  EXPECT_EQ(y.shape(), (shape_t{2, 3, 8, 8}));
}

TEST(Upsample, ValuesBoundedByInputRange) {
  rng g{11};
  tensor x = tensor::rand_uniform(g, {1, 4, 4}, 0.2f, 0.8f);
  tensor y = ops::upsample_bilinear(x, 4);
  for (float v : y.data()) {
    EXPECT_GE(v, 0.2f - 1e-5f);
    EXPECT_LE(v, 0.8f + 1e-5f);
  }
}

}  // namespace
}  // namespace pelta
