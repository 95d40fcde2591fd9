// THE frozen copy of the pre-blocked GEMM kernel (the naive cache-friendly
// i-k-j loop with the lazy zero-skip gate) — the single baseline both the
// kernel test suite and bench_kernels compare the blocked micro-kernels
// against, bit for bit. Do not "improve" it: its value is that it never
// changes. Accumulation goes through ops::detail::fmadd, the same
// compile-time rounding choice the blocked kernels use — with a bare
// `out += a * b` here, -ffp-contract would be free to fuse this loop
// differently from the library kernel on FMA targets and the bitwise
// comparisons would break.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "tensor/kernels.h"
#include "tensor/tensor.h"

namespace pelta::ops::reference {

// The gate's own finite scan: a plain loop, so the reference's speed does
// not move with the library's vectorised detail::all_finite.
inline bool reference_all_finite(const float* b, std::int64_t count) {
  for (std::int64_t i = 0; i < count; ++i)
    if (!std::isfinite(b[i])) return false;
  return true;
}

inline void reference_gemm(const float* a, const float* b, float* out, std::int64_t m,
                           std::int64_t k, std::int64_t n) {
  const bool skip = reference_all_finite(b, k * n);
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* orow = out + i * n;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f && skip) continue;
      const float* brow = b + kk * n;
      for (std::int64_t j = 0; j < n; ++j) orow[j] = detail::fmadd(av, brow[j], orow[j]);
    }
  }
}

// Pre-PR transposed-B path: materialize Bᵀ ([n,k] -> [k,n]) per call, then
// run the naive kernel — exactly what conv2d_backward_weight used to do
// with cols_t.
inline void reference_gemm_bt(const float* a, const float* bt, float* out, std::int64_t m,
                              std::int64_t k, std::int64_t n, std::vector<float>& b_storage) {
  b_storage.resize(static_cast<std::size_t>(k * n));
  for (std::int64_t j = 0; j < n; ++j)
    for (std::int64_t kk = 0; kk < k; ++kk)
      b_storage[static_cast<std::size_t>(kk * n + j)] = bt[j * k + kk];
  reference_gemm(a, b_storage.data(), out, m, k, n);
}

// THE frozen int8 reference: the textbook i-k-j loop over UNPACKED operands
// computing out[i][j] = sum_k (a_u8 - 128) * b_s8 in int32. It knows nothing
// of the packed panel layout, the colsum compensation trick or the AVX2
// pair-sum path — which is exactly why comparing ops::detail::qgemm against
// it bitwise proves the production kernel's algebra, not just its porting.
// Like its fp32 sibling above: do not "improve" it.
inline void reference_qgemm(const std::uint8_t* a, std::int64_t lda, const std::int8_t* b,
                            std::int32_t* out, std::int64_t m, std::int64_t k, std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) out[i * n + j] = 0;
  for (std::int64_t i = 0; i < m; ++i) {
    const std::uint8_t* arow = a + i * lda;
    std::int32_t* orow = out + i * n;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const std::int32_t av = static_cast<std::int32_t>(arow[kk]) - 128;
      const std::int8_t* brow = b + kk * n;
      for (std::int64_t j = 0; j < n; ++j) orow[j] += av * static_cast<std::int32_t>(brow[j]);
    }
  }
}

// THE frozen transposed convolution: the direct scatter the shielded
// oracle's adjoint lift used to run (stride `stride`, zero padding `pad`;
// input [B, C, H, W], weight [C, OC, KH, KW], output spatial size
// (H-1)*stride - 2*pad + KH). Per output element it adds over input
// channel, then input position, then tap, skipping zero inputs — the order
// the lift's kernel routes (attacks/oracle.cpp) are pinned to bit for bit.
// Like the kernels above: do not "improve" it.
inline tensor reference_conv2d_transpose(const tensor& input, const tensor& weight,
                                         std::int64_t stride, std::int64_t pad) {
  PELTA_CHECK_MSG(input.ndim() == 4 && weight.ndim() == 4,
                  "conv2d_transpose shapes " << to_string(input.shape()) << ", "
                                             << to_string(weight.shape()));
  const std::int64_t b = input.size(0), c = input.size(1), h = input.size(2), w = input.size(3);
  PELTA_CHECK_MSG(weight.size(0) == c, "conv2d_transpose channel mismatch");
  const std::int64_t oc = weight.size(1), kh = weight.size(2), kw = weight.size(3);
  const std::int64_t oh = (h - 1) * stride - 2 * pad + kh;
  const std::int64_t ow = (w - 1) * stride - 2 * pad + kw;
  PELTA_CHECK_MSG(oh > 0 && ow > 0, "conv2d_transpose output collapsed");

  tensor out{shape_t{b, oc, oh, ow}};
  const float* in = input.data().data();
  const float* wt = weight.data().data();
  float* op = out.data().data();
  for (std::int64_t n = 0; n < b; ++n) {
    for (std::int64_t ci = 0; ci < c; ++ci) {
      for (std::int64_t y = 0; y < h; ++y) {
        for (std::int64_t x = 0; x < w; ++x) {
          const float v = in[((n * c + ci) * h + y) * w + x];
          if (v == 0.0f) continue;
          for (std::int64_t o = 0; o < oc; ++o) {
            for (std::int64_t ky = 0; ky < kh; ++ky) {
              const std::int64_t oy = y * stride - pad + ky;
              if (oy < 0 || oy >= oh) continue;
              float* out_row = op + ((n * oc + o) * oh + oy) * ow;
              const float* wt_row = wt + ((ci * oc + o) * kh + ky) * kw;
              for (std::int64_t kx = 0; kx < kw; ++kx) {
                const std::int64_t ox = x * stride - pad + kx;
                if (ox < 0 || ox >= ow) continue;
                // detail::fmadd (R1): a raw `out += v * w` is exactly the
                // contraction hazard the kernel policy exists for — on FMA
                // targets -ffp-contract could fuse this path while the
                // reference stays mul+add.
                out_row[ox] = detail::fmadd(v, wt_row[kx], out_row[ox]);
              }
            }
          }
        }
      }
    }
  }
  return out;
}

// conv2d's weight [C, C', KH, KW] for the transposed-convolution kernel
// k [C', C, KH, KW] (dims 0/1 swapped, taps reversed): at stride 1,
// conv2d(x, flip_kernel(k), pad = KH-1-p) is the transposed convolution
// with padding p. A test-side copy of the layout the shielded oracle's 3x3
// lift reads, so the pin tests check that layout as well as the kernels.
inline tensor flip_kernel(const tensor& k) {
  const std::int64_t cp = k.size(0), c = k.size(1), kh = k.size(2), kw = k.size(3);
  tensor f{shape_t{c, cp, kh, kw}};
  for (std::int64_t o = 0; o < cp; ++o)
    for (std::int64_t i = 0; i < c; ++i)
      for (std::int64_t y = 0; y < kh; ++y)
        for (std::int64_t x = 0; x < kw; ++x) f.at(i, o, kh - 1 - y, kw - 1 - x) = k.at(o, i, y, x);
  return f;
}

}  // namespace pelta::ops::reference
