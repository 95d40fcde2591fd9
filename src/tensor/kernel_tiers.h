// Runtime kernel tiers: one table of entry points per instruction-set tier,
// picked once per process from what the CPU reports. Internal
// implementation surface of kernels.cpp, mathfn.cpp and quantized_tensor.cpp
// — not part of the public API.
//
// Tiers, narrowest first (src/tensor/CMakeLists.txt compiles one TU each):
//   * sse2   — tier_sse2.cpp: 4-lane fp32 strips, int8 through plain int32
//              multiplies.
//              The only tier on non-x86 hosts.
//   * avx2   — tier_avx2.cpp, -mavx2: 8-lane fp32 strips, int8 through
//              vpmaddubsw + vpmaddwd.
//   * avx512 — tier_avx512.cpp, -mavx512f -mavx512bw -mavx512vl
//              -mavx512vnni: 16-lane fp32 strips, int8 through vpdpbusd on
//              8-row tiles. Needs all four features.
// Every tier runs the same lane-generic bodies (tier_body.h) and gives the
// same output bits: per element the k-order is pinned, and the lane count
// only changes which outputs share a register. No tier TU is built with
// -mfma, and the whole library compiles with -ffp-contract=off, so a tier's
// `a * b + c` stays two roundings (-mavx512f would otherwise let GCC fuse
// it). PELTA_NATIVE defines PELTA_FUSED_MADD for the whole build, which
// turns detail::fmadd into a fused multiply-add in every tier alike.
//
// This header holds data types and declarations only — no inline function
// bodies — because the tier TUs include it: an inline function with
// external linkage emitted by a TU built with AVX-512 flags could be the
// copy the linker keeps, and would then fault on a host without AVX-512.
#pragma once

#include <cstdint>

namespace pelta::ops::detail {

/// Kernel tiers in widening order; each needs everything the previous one
/// needs.
enum class isa : int { sse2 = 0, avx2 = 1, avx512 = 2 };

/// One tier's kernels and blocking parameters.
struct kernel_table {
  const char* name;  ///< "sse2", "avx2" or "avx512"
  isa tier;
  /// Columns per fp32 register strip: two vectors of the tier's lanes.
  std::int64_t gemm_nr;
  /// Above this many rows of A, full B strips are packed contiguously
  /// before the strip loop; at or below it they are read in place.
  std::int64_t pack_rows;
  /// out[m,n] += a[m,k] * b[k,n] (plain) or a * bt[n,k]ᵀ (bt), m, k, n > 0.
  /// `skip` is the zero-skip gate the caller decided (kernels.h); `panel`
  /// is scratch for min(k_gemm_kc, k) x min(k_gemm_nc, n rounded up to
  /// gemm_nr) floats, and may be null for the plain form when m <= pack_rows and n
  /// is a multiple of gemm_nr (every strip is then read in place).
  void (*gemm)(const float* a, const float* b, float* out, std::int64_t m, std::int64_t k,
               std::int64_t n, bool skip, float* panel);
  void (*gemm_bt)(const float* a, const float* bt, float* out, std::int64_t m, std::int64_t k,
                  std::int64_t n, bool skip, float* panel);
  /// Adds the raw shifted-u8 x s8 products onto out's compensation base
  /// (kernels.h, qgemm); k > 0.
  void (*qgemm)(const std::uint8_t* a, std::int64_t lda, const std::int8_t* packed,
                std::int32_t* out, std::int64_t m, std::int64_t k, std::int64_t n);
  /// Shifted-u8 activation codes of x * inv, clamped to ±k_act_qmax and
  /// rounded to nearest even (quant::quantize_activations).
  void (*quantize)(const float* x, std::int64_t count, float inv, std::uint8_t* out);
  /// fn::exp / fn::tanh array maps (mathfn.h).
  void (*exp)(const float* in, float* out, std::int64_t n);
  void (*tanh)(const float* in, float* out, std::int64_t n);
};

/// fp32 GEMM blocking shared by every tier: KC-deep k-blocks, NC-column
/// packed panels (KC * NC floats = 256 KB), MC-row A blocks.
inline constexpr std::int64_t k_gemm_kc = 256;
inline constexpr std::int64_t k_gemm_nc = 256;
inline constexpr std::int64_t k_gemm_mc = 64;

// Each tier TU's table (tier_<name>.cpp); avx2 and avx512 are only built
// for x86 targets.
namespace sse2 {
extern const kernel_table table;
}
namespace avx2 {
extern const kernel_table table;
}
namespace avx512 {
extern const kernel_table table;
}

/// The widest tier this build can run on this CPU (detected once).
isa host_isa();

/// The table of `tier`; throws pelta::error above host_isa().
const kernel_table& kernels_for(isa tier);

/// The table every dispatched entry point (gemm_accumulate,
/// gemm_accumulate_bt, qgemm, quant::quantize_activations, fn::exp,
/// fn::tanh) forwards through: kernels_for(host_isa()) unless a
/// tier_override is live.
const kernel_table& active_kernels();

/// Test hook: routes every dispatched kernel through kernels_for(tier)
/// until destroyed, then restores the previous routing. Process-wide; only
/// construct or destroy one while no kernel is running.
class tier_override {
public:
  explicit tier_override(isa tier);
  ~tier_override();
  tier_override(const tier_override&) = delete;
  tier_override& operator=(const tier_override&) = delete;

private:
  const kernel_table* previous_;
};

}  // namespace pelta::ops::detail
