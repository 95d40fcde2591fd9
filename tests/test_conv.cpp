// Convolution / pooling kernels, including backward-vs-finite-difference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "autodiff/gradcheck.h"
#include "reference_kernels.h"
#include "tensor/conv.h"
#include "tensor/kernels.h"  // detail::fmadd — the accumulation-policy reference
#include "tensor/ops.h"

namespace pelta {
namespace {

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
