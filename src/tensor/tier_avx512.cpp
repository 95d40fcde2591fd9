// The avx512 kernel tier, compiled with -mavx512f -mavx512bw -mavx512vl
// -mavx512vnni (never -mfma; see kernel_tiers.h). Only reached when the CPU
// reports all four.
#include "tensor/tier_body.h"

namespace pelta::ops::detail::avx512 {
namespace {

struct traits {
  static constexpr int lanes = 16;
  using f32v = float __attribute__((vector_size(64)));
  using i32v = std::int32_t __attribute__((vector_size(64)));
  using u8v = std::uint8_t __attribute__((vector_size(16)));
  // Packing B strips pays from 16 rows of A at this width (kernels.cpp).
  static constexpr std::int64_t pack_rows = 16;
  // One zmm accumulator per row (32 registers): 8 rows amortize the panel
  // load and keep 8 independent vpdpbusd chains in flight.
  static constexpr int qgemm_rows = 8;

  // A packed k-group is exactly one zmm (16 columns x 4 k-bytes): one
  // vpdpbusd sums the u8*s8 quads straight into the int32 column lanes.
  static i32v dot4(i32v acc, std::int32_t a4, i32v b) {
    return __builtin_bit_cast(
        i32v, _mm512_dpbusd_epi32(__builtin_bit_cast(__m512i, acc), _mm512_set1_epi32(a4),
                                  __builtin_bit_cast(__m512i, b)));
  }
};

}  // namespace

const kernel_table table = tier::make_table<traits>("avx512", isa::avx512);

}  // namespace pelta::ops::detail::avx512
