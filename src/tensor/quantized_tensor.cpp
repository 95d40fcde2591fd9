#include "tensor/quantized_tensor.h"

#include <algorithm>
#include <cmath>

#include "tensor/check.h"
#include "tensor/kernels.h"
#include "tensor/scratch.h"

namespace pelta::quant {

std::int32_t round_nearest_even(float x) {
  const float fl = std::floor(x);
  const float frac = x - fl;
  const std::int32_t lo = static_cast<std::int32_t>(fl);
  if (frac > 0.5f) return lo + 1;
  if (frac < 0.5f) return lo;
  return (lo % 2 == 0) ? lo : lo + 1;  // tie: pick the even neighbour
}

float absmax(const float* x, std::int64_t count) {
  float m = 0.0f;
  for (std::int64_t i = 0; i < count; ++i) m = std::max(m, std::fabs(x[i]));
  return m;
}

float activation_scale(float amax) {
  if (!(amax > 0.0f)) return 1.0f;
  return amax / static_cast<float>(k_act_qmax);
}

namespace {

std::int32_t clamp_code(std::int32_t q, std::int32_t qmax) {
  return std::min(qmax, std::max(-qmax, q));
}

}  // namespace

void quantize_activations(const float* x, std::int64_t count, float scale, std::uint8_t* out) {
  PELTA_CHECK_MSG(scale > 0.0f, "activation scale must be positive, got " << scale);
  // The tier's vector body clamps in fp32 first and then rounds to nearest
  // even: the same integer as round-then-clamp on every finite input,
  // because rounding is monotone and +-127 round to themselves.
  ops::detail::active_kernels().quantize(x, count, 1.0f / scale, out);
}

float dequantize_activation(std::uint8_t code, float scale) {
  return static_cast<float>(static_cast<std::int32_t>(code) - k_act_zero) * scale;
}

quantized_weights quantize_weights_kn(const float* w, std::int64_t k, std::int64_t n) {
  PELTA_CHECK_MSG(k >= 0 && n >= 0, "quantize_weights_kn shape " << k << "x" << n);
  quantized_weights qw;
  qw.k = k;
  qw.n = n;
  qw.scales.assign(static_cast<std::size_t>(std::max<std::int64_t>(n, 0)), 1.0f);
  qw.colsums.assign(static_cast<std::size_t>(std::max<std::int64_t>(n, 0)), 0);
  qw.codes.assign(static_cast<std::size_t>(k * n), 0);
  for (std::int64_t j = 0; j < n; ++j) {
    float amax = 0.0f;
    for (std::int64_t kk = 0; kk < k; ++kk)
      amax = std::max(amax, std::fabs(w[kk * n + j]));
    const float s = amax > 0.0f ? amax / static_cast<float>(k_weight_qmax) : 1.0f;
    const float inv = 1.0f / s;
    std::int32_t csum = 0;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const std::int32_t q = clamp_code(round_nearest_even(w[kk * n + j] * inv), k_weight_qmax);
      qw.codes[static_cast<std::size_t>(kk * n + j)] = static_cast<std::int8_t>(q);
      csum += q;
    }
    qw.scales[static_cast<std::size_t>(j)] = s;
    qw.colsums[static_cast<std::size_t>(j)] = csum;
  }
  qw.packed.assign(static_cast<std::size_t>(ops::detail::qgemm_packed_size(k, n)), 0);
  if (k > 0 && n > 0) ops::detail::qgemm_pack_b(qw.codes.data(), k, n, qw.packed.data());
  return qw;
}

void dequantize_rows(const std::int32_t* acc, std::int64_t m, std::int64_t n, float act_scale,
                     const float* w_scales, const float* bias, bool fuse_relu, float* out) {
  if (m <= 0 || n <= 0) return;
  // Stage the combined per-column scales once: n multiplies instead of m*n,
  // and every row sees the identical fp32 factor.
  scratch_buffer combined_buf = scratch_arena::local().take(static_cast<std::size_t>(n));
  float* combined = combined_buf.data();
  for (std::int64_t j = 0; j < n; ++j) combined[j] = act_scale * w_scales[j];
  for (std::int64_t i = 0; i < m; ++i) {
    const std::int32_t* arow = acc + i * n;
    float* orow = out + i * n;
    for (std::int64_t j = 0; j < n; ++j) {
      const float base = bias != nullptr ? bias[j] : 0.0f;
      float y = ops::detail::fmadd(static_cast<float>(arow[j]), combined[j], base);
      if (fuse_relu && y < 0.0f) y = 0.0f;
      orow[j] = y;
    }
  }
}

}  // namespace pelta::quant
