// The sse2 kernel tier: the portable build's baseline flags, so it runs on
// every host (and is the only tier off x86). See kernel_tiers.h.
#include "tensor/tier_body.h"

namespace pelta::ops::detail::sse2 {
namespace {

struct traits {
  static constexpr int lanes = 4;
  using f32v = float __attribute__((vector_size(16)));
  using i32v = std::int32_t __attribute__((vector_size(16)));
  using u32v = std::uint32_t __attribute__((vector_size(16)));
  using u8v = std::uint8_t __attribute__((vector_size(4)));
  // Packing B strips pays from 32 rows of A at this width (kernels.cpp).
  static constexpr std::int64_t pack_rows = 32;
  static constexpr int qgemm_rows = 4;

  // No byte dot-product instruction before SSSE3: each of the 4 k-bytes is
  // sign-extended out of its column lane by a shift pair and multiplied
  // in int32 — exact, like every other tier's form.
  static i32v dot4(i32v acc, std::int32_t a4, i32v b) {
    const auto a_bytes = static_cast<std::uint32_t>(a4);
    for (int t = 0; t < 4; ++t) {
      const auto at = static_cast<std::int32_t>((a_bytes >> (8 * t)) & 0xffu);
      const i32v bt = __builtin_bit_cast(i32v, __builtin_bit_cast(u32v, b) << (24 - 8 * t)) >> 24;
      acc += bt * at;  // pelta-lint: allow(R1) int32 lanes: integer accumulation is exact
    }
    return acc;
  }
};

}  // namespace

const kernel_table table = tier::make_table<traits>("sse2", isa::sse2);

}  // namespace pelta::ops::detail::sse2
