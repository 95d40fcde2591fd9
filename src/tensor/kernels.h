// Shared dense inner kernels for the tensor backends (ops.cpp, conv.cpp).
// Internal implementation surface — not part of the public API. detail::fmadd
// doubles as the repo-wide float-accumulation policy (pelta-lint rule R1):
// fl/aggregation routes its weighted accumulations through it too, so no
// layer's rounding sequence can drift with -ffp-contract.
//
// Determinism contract (see README "Tensor backend"): for every output
// element the k-accumulation order is ascending and expressed by the same
// fmadd sequence on every code path (full register strips, row tails,
// column tails). A row's bits therefore never depend on which strip or
// parallel chunk it landed in, which is what lets matmul and the conv batch
// loops split work across PELTA_THREADS without changing a single bit of
// the result.
#pragma once

#include <atomic>
#include <cmath>
#include <cstdint>

#include "tensor/kernel_tiers.h"

namespace pelta::ops::detail {

/// Rows per register strip of the blocked GEMM, the same on every tier
/// (the strip's columns, kernel_table::gemm_nr, are two vectors of the
/// tier's lanes). Callers that split rows across threads should round their
/// chunk grain up to k_gemm_mr so mid-matrix chunks keep full row tiles
/// (values are grain-independent either way; this is purely a throughput
/// concern).
inline constexpr std::int64_t k_gemm_mr = 4;

/// Single-rounding fused multiply-add in the PELTA_NATIVE build (and on
/// targets whose baseline has FMA), separate mul+add everywhere else —
/// fixed for the whole build, not per TU. Every kernel path (full tiles,
/// tails, packed edges, every tier's vector form in tier_body.h) and the
/// frozen reference kernels in tests/bench accumulate through this rounding
/// choice, so each output element sees the identical rounding sequence no
/// matter which instantiation computed it. Without this, -ffp-contract is
/// free to fuse some paths and not others, silently breaking bit-identity
/// between tile shapes (and with it the across-PELTA_THREADS guarantee).
inline float fmadd(float a, float b, float c) {
#if defined(PELTA_FUSED_MADD) || defined(__ARM_FEATURE_FMA)
  return std::fma(a, b, c);
#else
  return a * b + c;  // unfused build: contraction cannot diverge
#endif
}

// ---- zero-skip gate scans ---------------------------------------------------
//
// all_finite and any_zero_in (and the per-tile copy in tier_body.h) walk
// k_scan_block floats at a time: inside a block every element is compared
// lane-wise into one mask, with no branch, and the scan exits early only
// between blocks; the ragged tail is one branch-free scalar pass. GCC keeps
// a per-element early-exit loop scalar (a compare and a jump per float),
// and at that speed the scans cost as much as a shallow GEMM.

/// Floats per scan block: 64 bytes, four 4-lane vectors. A 16-deep k-block
/// row of the per-tile scan is exactly one block.
inline constexpr std::int64_t k_scan_block = 16;

using scan_f32x4 = float __attribute__((vector_size(16)));
using scan_i32x4 = std::int32_t __attribute__((vector_size(16)));

/// True iff some lane of a comparison mask is set.
inline bool any_lane(scan_i32x4 mask) {
  std::uint64_t words[2];
  __builtin_memcpy(words, &mask, sizeof mask);
  return (words[0] | words[1]) != 0;
}

/// False iff some element is Inf or NaN (std::isfinite per element): the
/// exponent field is all ones exactly for those.
inline bool all_finite(const float* p, std::int64_t count) {
  constexpr std::int32_t exponent = 0x7f800000;
  std::int64_t i = 0;
  for (; i + k_scan_block <= count; i += k_scan_block) {
    scan_i32x4 hit = {};
    for (std::int64_t q = 0; q < k_scan_block; q += 4) {
      scan_i32x4 bits;
      __builtin_memcpy(&bits, p + i + q, sizeof bits);
      hit |= (bits & exponent) == exponent;
    }
    if (any_lane(hit)) return false;
  }
  bool hit = false;
  for (; i < count; ++i) hit |= !std::isfinite(p[i]);
  return !hit;
}

/// True iff some element == 0.0f (-0.0f included). Defined in kernels.cpp.
bool any_zero_in(const float* p, std::int64_t count);

/// Lazily computed finiteness of one B operand: -1 unknown, 0 has
/// non-finite values, 1 all finite. Chunks of one parallel split share the
/// cache so B is scanned at most once per operand (the duplicated-scan race
/// is benign — both writers store the same value). Lock discipline
/// (docs/ARCHITECTURE.md): a value-idempotent atomic like this carries no
/// PELTA_GUARDED_BY — there is no mutex, and every racing writer computes
/// the identical value from the same immutable operand.
class finite_cache {
public:
  bool check(const float* b, std::int64_t count) {
    int s = state_.load(std::memory_order_relaxed);
    if (s < 0) {
      s = all_finite(b, count) ? 1 : 0;
      state_.store(s, std::memory_order_relaxed);
    }
    return s == 1;
  }

private:
  std::atomic<int> state_{-1};
};

// Blocked GEMM: out[m,n] += a[m,k] * b[k,n]; out must hold the accumulation
// base (zeros or bias), on active_kernels()'s tier (kernel_tiers.h), or a
// narrower one when n is below that tier's strip width. Per output element
// the k-order matches the classic i-k-j loop bit for bit. The zero-skip
// fast path is only sound when B is fully finite: 0 * Inf and 0 * NaN are
// NaN, and a poisoned update must surface, not vanish through a zero-weight
// row — the gate is decided ONCE per call, never inside the inner loops: A
// is pre-scanned for zeros (dense A neither consults nor scans B, as
// before), and only a zero-bearing A pays the B scan, cached in `b_finite`
// across calls on the same operand.
void gemm_accumulate(const float* a, const float* b, float* out, std::int64_t m, std::int64_t k,
                     std::int64_t n, finite_cache& b_finite);

// Transposed-B variant: out[m,n] += a[m,k] * bt[n,k]ᵀ, i.e. B is stored
// row-major as [n,k] and B[kk][j] = bt[j*k + kk]. Bit-identical to
// materializing the [k,n] transpose and calling gemm_accumulate — same
// ascending k-order per element, same zero-skip gate (decided from bt's
// finiteness) — but instead of a full [k,n] transpose per call it packs
// one cache-sized panel of register strips at a time from the thread's
// scratch arena, so the transposed-operand backward passes (linear's dX,
// ops::bmm_bt) never materialize one. conv2d_backward_weight relies on
// this equality the other way round: it writes its columns already
// transposed (im2row) and calls gemm_accumulate, with the bits of the bt
// call over the untransposed columns.
void gemm_accumulate_bt(const float* a, const float* bt, float* out, std::int64_t m,
                        std::int64_t k, std::int64_t n, finite_cache& bt_finite);

// ---- int8 quantized GEMM ----------------------------------------------------
//
// Operand encoding (see tensor/quantized_tensor.h for the quantization
// helpers that produce it):
//   * A holds activations as SHIFTED unsigned bytes: stored value
//     a_u8 = q_a + 128 with q_a in [-127, 127], so a_u8 in [1, 255].
//   * B holds per-output-channel 7-bit weights: q_w in [-63, 63] as plain
//     int8. The 7-bit clamp is what makes the AVX2 vpmaddubsw path exact:
//     a u8*s8 product pair is bounded by 2 * 255 * 63 = 32130 < 2^15 - 1,
//     so the instruction's saturating s16 pair-sum can never saturate.
//   * The kernel computes out[i][j] = sum_k (a_u8 - 128) * q_w as int32 by
//     accumulating the raw sum_k a_u8 * q_w and pre-loading the output with
//     the -128 * colsum[j] compensation term (colsum[j] = sum_k q_w[kk][j]).
//     Integer accumulation is exact and associative, so every path (each
//     kernel tier, any row split across PELTA_THREADS) produces
//     bit-identical int32 results by construction.

/// Bytes per k-group: vpmaddubsw / vpdpbusd consume 4 consecutive k bytes
/// per int32 lane.
inline constexpr std::int64_t k_qgemm_kg = 4;
/// Packed panel width (columns per panel).
inline constexpr std::int64_t k_qgemm_nr = 16;

/// Number of 4-wide k-groups covering k (k zero-padded up to a multiple of 4).
inline std::int64_t qgemm_k_groups(std::int64_t k) {
  return (k + k_qgemm_kg - 1) / k_qgemm_kg;
}

/// Required row stride (in bytes) of an A panel for depth k. Bytes in
/// [k, stride) of each row are don't-care: they only ever multiply the
/// packed B pad entries, which are zero.
inline std::int64_t qgemm_row_stride(std::int64_t k) {
  return qgemm_k_groups(k) * k_qgemm_kg;
}

/// Packed-B size in int8 elements for a [k, n] weight matrix: panels of 16
/// columns x qgemm_k_groups(k) groups x 64 bytes, n padded up to 16.
inline std::int64_t qgemm_packed_size(std::int64_t k, std::int64_t n) {
  return (n + k_qgemm_nr - 1) / k_qgemm_nr * qgemm_k_groups(k) * k_qgemm_nr * k_qgemm_kg;
}

/// Pack row-major int8 B [k, n] into the kernel layout
/// [n_pad/16][k_groups][16 columns][4 k-bytes]; pad columns (n -> n_pad)
/// and pad k-bytes (k -> 4*k_groups) are zero-filled, which is what makes
/// A's pad bytes don't-care and keeps the edge panels fixed-trip.
void qgemm_pack_b(const std::int8_t* b, std::int64_t k, std::int64_t n, std::int8_t* packed);

/// out[m,n] (int32, row stride n, OVERWRITTEN) = (a - 128) * b using packed
/// B and its column sums. a: shifted-u8 rows with row stride lda >=
/// qgemm_row_stride(k). Callers may split m across threads at any grain —
/// rows are independent and integer-exact, so the split is bitwise
/// invisible (round the grain to k_gemm_mr for full row tiles, as fp32).
void qgemm(const std::uint8_t* a, std::int64_t lda, const std::int8_t* packed,
           const std::int32_t* colsum, std::int32_t* out, std::int64_t m, std::int64_t k,
           std::int64_t n);

}  // namespace pelta::ops::detail
