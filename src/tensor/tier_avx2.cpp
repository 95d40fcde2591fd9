// The avx2 kernel tier, compiled with -mavx2 (never -mfma; see
// kernel_tiers.h). Only reached when the CPU reports AVX2.
#include "tensor/tier_body.h"

namespace pelta::ops::detail::avx2 {
namespace {

struct traits {
  static constexpr int lanes = 8;
  using f32v = float __attribute__((vector_size(32)));
  using i32v = std::int32_t __attribute__((vector_size(32)));
  using u8v = std::uint8_t __attribute__((vector_size(8)));
  // Packing B strips pays from 16 rows of A at this width (kernels.cpp).
  static constexpr std::int64_t pack_rows = 16;
  // Two ymm accumulators per row: 4 rows fit the 16 registers.
  static constexpr int qgemm_rows = 4;

  // vpmaddubsw forms u8*s8 pair sums in int16 — exact, because 7-bit
  // weights bound a pair by 2 * 255 * 63 = 32130 < 2^15 — and vpmaddwd
  // against ones widens and adds the pairs into int32.
  static i32v dot4(i32v acc, std::int32_t a4, i32v b) {
    const __m256i pairs =
        _mm256_maddubs_epi16(_mm256_set1_epi32(a4), __builtin_bit_cast(__m256i, b));
    return acc + __builtin_bit_cast(i32v, _mm256_madd_epi16(pairs, _mm256_set1_epi16(1)));
  }
};

}  // namespace

const kernel_table table = tier::make_table<traits>("avx2", isa::avx2);

}  // namespace pelta::ops::detail::avx2
