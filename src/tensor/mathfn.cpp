// Vector bodies of fn::exp and fn::tanh (see mathfn.h for the contract).
// This file is compiled with -ffp-contract=off (src/tensor/CMakeLists.txt):
// every `a * b + c` below is a rounded multiply followed by a rounded add on
// every build, so no target may fuse it into an FMA.
#include "tensor/mathfn.h"

#include "tensor/kernels.h"

namespace pelta::fn {

namespace {

using ops::detail::f32v;
using ops::detail::k_gemm_lanes;
using i32v = std::int32_t __attribute__((vector_size(sizeof(f32v))));

inline f32v splat(float v) { return f32v{} + v; }
inline i32v bits(f32v v) { return reinterpret_cast<i32v>(v); }
inline f32v from_bits(i32v v) { return reinterpret_cast<f32v>(v); }

/// mask ? a : b per lane; mask lanes are all-ones or all-zeros (a vector
/// comparison's result).
inline f32v select(i32v mask, f32v a, f32v b) {
  return from_bits((mask & bits(a)) | (~mask & bits(b)));
}

/// e^x. Reduction x = n·ln2 + r with n = round(x / ln2), |r| <= ln2/2
/// (Cody-Waite: ln2 split so n·k_ln2_hi is exact for every n in range), then
/// e^r = 1 + r + r²·p(r) with a degree-5 minimax p, then the result is
/// scaled by 2^n as two exact power-of-two factors, so n = 128 (results
/// just below FLT_MAX) and n = -150 (the smallest denormals) never need an
/// out-of-range exponent field.
inline f32v exp_body(f32v x) {
  constexpr float k_hi = 89.0f;     // above ln(FLT_MAX) ≈ 88.72: the result is +Inf
  constexpr float k_lo = -104.0f;   // below ln(2^-150) ≈ -103.97: the result is +0
  constexpr float k_log2e = 1.44269504088896341f;
  constexpr float k_shifter = 12582912.0f;  // 1.5·2^23: adding it rounds to an integer
  constexpr float k_ln2_hi = 0.693359375f;  // 9 significant bits
  constexpr float k_ln2_lo = -2.12194440e-4f;

  // Clamp to [k_lo, k_hi]. A NaN lane compares false and is clamped to
  // k_hi here, so the exponent arithmetic below only ever sees finite
  // inputs; the NaN itself is put back as the result at the end.
  const i32v is_nan = x != x;
  f32v xc = x < k_hi ? x : splat(k_hi);
  xc = xc > k_lo ? xc : splat(k_lo);

  // shifted = 1.5·2^23 + n exactly (ulp 1 in that binade), so n is also the
  // difference of the two bit patterns: no float→int conversion needed.
  const f32v shifted = xc * k_log2e + k_shifter;
  const f32v n = shifted - k_shifter;
  const f32v r = (xc - n * k_ln2_hi) - n * k_ln2_lo;

  f32v p = splat(1.9875691500e-4f);
  p = p * r + 1.3981999507e-3f;
  p = p * r + 8.3334519073e-3f;
  p = p * r + 4.1665795894e-2f;
  p = p * r + 1.6666665459e-1f;
  p = p * r + 5.0000001201e-1f;
  const f32v y = (p * (r * r) + r) + 1.0f;

  const i32v ni = bits(shifted) - bits(splat(k_shifter));  // n in [-150, 128]
  const i32v n1 = ni >> 1;
  const i32v n2 = ni - n1;
  const f32v scale1 = from_bits((n1 + 127) << 23);
  const f32v scale2 = from_bits((n2 + 127) << 23);
  return select(is_nan, x, (y * scale1) * scale2);
}

/// tanh(x) on |x|, sign restored at the end (so tanh(-0) == -0 and the
/// function is exactly odd). Below 0.625 an odd minimax polynomial
/// a + a³·q(a²); above, 1 - 2/(e^{2a} + 1) through exp_body, which saturates
/// to exactly 1 once e^{2a} makes 2/(e^{2a}+1) round away (and for +Inf).
inline f32v tanh_body(f32v x) {
  constexpr float k_poly_below = 0.625f;
  const i32v sign = bits(x) & static_cast<std::int32_t>(0x80000000u);
  const f32v a = from_bits(bits(x) & 0x7fffffff);

  const f32v z = a * a;
  f32v q = splat(-5.70498872745e-3f);
  q = q * z + 2.06390887954e-2f;
  q = q * z - 5.37397155531e-2f;
  q = q * z + 1.33314422036e-1f;
  q = q * z - 3.33332819422e-1f;
  const f32v small = (q * z) * a + a;

  const f32v e = exp_body(a + a);
  const f32v large = 1.0f - 2.0f / (e + 1.0f);

  const f32v t = from_bits(bits(select(a < k_poly_below, small, large)) | sign);
  return select(x != x, x, t);
}

template <f32v (*Body)(f32v)>
float scalar(float x) {
  f32v v{};
  v[0] = x;
  return Body(v)[0];
}

// Full vectors, then the ragged tail zero-padded through the same body.
template <f32v (*Body)(f32v)>
void map(const float* in, float* out, std::int64_t n) {
  constexpr std::int64_t w = k_gemm_lanes;
  std::int64_t i = 0;
  for (; i + w <= n; i += w) {
    f32v v;
    __builtin_memcpy(&v, in + i, sizeof v);
    v = Body(v);
    __builtin_memcpy(out + i, &v, sizeof v);
  }
  if (i < n) {
    const auto tail = static_cast<int>(n - i);
    f32v v{};
    for (int j = 0; j < tail; ++j) v[j] = in[i + j];
    v = Body(v);
    for (int j = 0; j < tail; ++j) out[i + j] = v[j];
  }
}

}  // namespace

float exp(float x) { return scalar<exp_body>(x); }
float tanh(float x) { return scalar<tanh_body>(x); }
void exp(const float* in, float* out, std::int64_t n) { map<exp_body>(in, out, n); }
void tanh(const float* in, float* out, std::int64_t n) { map<tanh_body>(in, out, n); }

}  // namespace pelta::fn
