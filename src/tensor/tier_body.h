// Lane-generic kernel bodies, compiled once per tier by tier_<name>.cpp
// (see kernel_tiers.h for the tiers and their bit-identity contract).
//
// Each tier TU defines one traits struct and instantiates make_table<>()
// with it:
//   using f32v, i32v, u8v   float / int32 / uint8 vectors of `lanes` lanes
//   lanes                   4, 8 or 16
//   pack_rows               the fp32 B-packing crossover (kernels.cpp)
//   qgemm_rows              int8 register-tile height
//   dot4(acc, a4, b)        per int32 lane j: acc[j] + sum over t < 4 of
//                           u8 byte t of a4 times s8 byte t of b[j]
//
// Linkage discipline: everything below sits in an anonymous namespace, so
// each tier TU gets its own internal copy and emits no weak symbol another
// TU could also emit. For the same reason the bodies call no
// standard-library function (an instantiated std:: template has external
// linkage, and the linker may keep the copy built with AVX-512 flags): only
// compiler builtins, vector extensions and <immintrin.h> intrinsics, which
// never get out-of-line copies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>  // std::index_sequence: a type, no code

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "tensor/kernel_tiers.h"
#include "tensor/quantized_tensor.h"

namespace pelta::ops::detail::tier {
namespace {

using i64 = std::int64_t;

constexpr i64 MR = 4;          // rows per fp32 register strip (kernels.h k_gemm_mr)
constexpr i64 KC = k_gemm_kc;  // k-block: a packed B strip is KC*SW floats
constexpr i64 NC = k_gemm_nc;  // columns per packed B panel
constexpr i64 MC = k_gemm_mc;  // rows per A block swept over one panel
constexpr i64 KGQ = 4;         // int8 k-bytes per group (kernels.h k_qgemm_kg)
constexpr i64 NRQ = 16;        // int8 packed panel width (kernels.h k_qgemm_nr)
constexpr i64 KCQ = 256;       // int8 k-groups per block: 1024 k, 16 KB panel block

inline i64 min_of(i64 x, i64 y) { return x < y ? x : y; }

template <class V>
inline V load(const void* p) {
  V v;
  __builtin_memcpy(&v, p, sizeof v);
  return v;
}

template <class V>
inline void store(void* p, V v) {
  __builtin_memcpy(p, &v, sizeof v);
}

// Broadcast as one brace-initializer ({s, s, ...}), which GCC lowers to a
// single shuffle; a per-lane store loop compiles to lane-insert chains.
// Exact for every s, -0.0 included (unlike `V{} + s`).
template <class V, std::size_t... I>
inline V splat_lanes(float s, std::index_sequence<I...>) {
  return V{((void)I, s)...};
}

template <class V>
inline V splat(float s) {
  return splat_lanes<V>(s, std::make_index_sequence<sizeof(V) / sizeof(float)>{});
}

/// Lane-wise detail::fmadd: the same build-wide rounding choice as the
/// scalar form (kernels.h), so a vector lane and a scalar reference element
/// see identical bits. Keyed on PELTA_FUSED_MADD, not on __FMA__, because
/// a tier's own flags may define __FMA__ (Clang's -mavx512f implies FMA).
template <class V>
inline V fmadd(V a, V b, V c) {
#if defined(PELTA_FUSED_MADD) || defined(__ARM_FEATURE_FMA)
#if defined(__FMA__)
  if constexpr (sizeof(V) == 64)
    return _mm512_fmadd_ps(a, b, c);
  else if constexpr (sizeof(V) == 32)
    return _mm256_fmadd_ps(a, b, c);
  else
    return _mm_fmadd_ps(a, b, c);
#else
  V r;
  for (int i = 0; i < static_cast<int>(sizeof(V) / sizeof(float)); ++i)
    r[i] = __builtin_fmaf(a[i], b[i], c[i]);
  return r;
#endif
#else
  return a * b + c;  // two roundings: the library compiles with -ffp-contract=off
#endif
}

// True iff some lane of an int32 comparison mask is set: OR the halves
// together down to 16 bytes, then test two 64-bit words.
template <class I>
inline bool any_lane(const I& mask) {
  using i32x4 = std::int32_t __attribute__((vector_size(16)));
  using i32x8 = std::int32_t __attribute__((vector_size(32)));
  if constexpr (sizeof(I) == 64) {
    i32x8 half[2];
    __builtin_memcpy(half, &mask, sizeof mask);
    return any_lane(half[0] | half[1]);
  } else if constexpr (sizeof(I) == 32) {
    i32x4 half[2];
    __builtin_memcpy(half, &mask, sizeof mask);
    return any_lane(half[0] | half[1]);
  } else {
    static_assert(sizeof(I) == 16);
    std::uint64_t words[2];
    __builtin_memcpy(words, &mask, sizeof mask);
    return (words[0] | words[1]) != 0;
  }
}

// True iff some element == 0.0f (-0.0f included): the baseline
// detail::any_zero_in (kernels.h), which a tier TU cannot call, at the
// tier's width. Each 16-float block is compared lane-wise into one mask
// with no branch; the scan exits early only between blocks, and the ragged
// tail is one branch-free scalar pass. A 16-deep k-block row is one block.
template <class T>
bool any_zero_in(const float* p, i64 count) {
  using V = typename T::f32v;
  constexpr i64 block = 16;  // kernels.h k_scan_block
  static_assert(block % T::lanes == 0);
  i64 i = 0;
  for (; i + block <= count; i += block) {
    typename T::i32v hit = {};
    for (i64 q = 0; q < block; q += T::lanes) hit |= load<V>(p + i + q) == V{};
    if (any_lane(hit)) return true;
  }
  bool hit = false;
  for (; i < count; ++i) hit |= p[i] == 0.0f;
  return hit;
}

// ---- fp32 blocked GEMM ------------------------------------------------------

// av != 0 ? t : acc per lane — the masked select that is bit-exact with
// skipping the term (it also keeps a -0.0 accumulator's sign).
template <class T>
inline typename T::f32v select_nonzero(typename T::f32v av, typename T::f32v t,
                                       typename T::f32v acc) {
  using I = typename T::i32v;
  const I keep = av != typename T::f32v{};
  const I picked = (__builtin_bit_cast(I, t) & keep) | (__builtin_bit_cast(I, acc) & ~keep);
  return __builtin_bit_cast(typename T::f32v, picked);
}

// One ROWS x SW strip over k-block rows [0, kc) of B.
//   a:   ROWS rows, stride lda, k-offset already applied
//   b:   kc rows, stride ldb; SW columns readable (a packed strip zero-pads)
//   out: ROWS rows, stride ldo; only the first jn <= SW columns are loaded
//        and stored (jn < SW only on a zero-padded edge strip, whose pad
//        lanes are compute-only)
template <class T, int ROWS, bool Skip>
inline void gemm_strip(const float* a, i64 lda, const float* b, i64 ldb, float* out, i64 ldo,
                       i64 kc, i64 jn) {
  using V = typename T::f32v;
  constexpr i64 VL = T::lanes;
  constexpr i64 SW = 2 * VL;
  V lo[ROWS];
  V hi[ROWS];
  for (int r = 0; r < ROWS; ++r) {
    if (jn == SW) {
      lo[r] = load<V>(out + r * ldo);
      hi[r] = load<V>(out + r * ldo + VL);
    } else {
      float edge[SW] = {};  // pad lanes start at zero and are never stored
      __builtin_memcpy(edge, out + r * ldo, static_cast<std::size_t>(jn) * sizeof(float));
      lo[r] = load<V>(edge);
      hi[r] = load<V>(edge + VL);
    }
  }
  for (i64 kk = 0; kk < kc; ++kk) {
    const V b0 = load<V>(b + kk * ldb);
    const V b1 = load<V>(b + kk * ldb + VL);
    float av[ROWS];
    bool any_zero = false;
    for (int r = 0; r < ROWS; ++r) {
      av[r] = a[r * lda + kk];
      any_zero |= (av[r] == 0.0f);
    }
    if (!Skip || !any_zero) {
      // Common case: no zero anywhere in the strip's A column — one
      // predictable branch guards a pure FMA block.
      for (int r = 0; r < ROWS; ++r) {
        const V v = splat<V>(av[r]);
        lo[r] = fmadd(v, b0, lo[r]);
        hi[r] = fmadd(v, b1, hi[r]);
      }
    } else {
      // Some row skips: masked select, bit-exact with skipping the update.
      for (int r = 0; r < ROWS; ++r) {
        const V v = splat<V>(av[r]);
        lo[r] = select_nonzero<T>(v, fmadd(v, b0, lo[r]), lo[r]);
        hi[r] = select_nonzero<T>(v, fmadd(v, b1, hi[r]), hi[r]);
      }
    }
  }
  for (int r = 0; r < ROWS; ++r) {
    if (jn == SW) {
      store(out + r * ldo, lo[r]);
      store(out + r * ldo + VL, hi[r]);
    } else {
      float edge[SW];
      store(edge, lo[r]);
      store(edge + VL, hi[r]);
      __builtin_memcpy(out + r * ldo, edge, static_cast<std::size_t>(jn) * sizeof(float));
    }
  }
}

// The 3/2/1-row remainder of a strip through the same template body.
template <class T, int ROWS, bool Skip>
inline void strip_tail(const float* a, i64 lda, const float* b, i64 ldb, float* out, i64 ldo,
                       i64 kc, i64 rows, i64 jn) {
  if constexpr (ROWS > 0) {
    if (rows == ROWS)
      gemm_strip<T, ROWS, Skip>(a, lda, b, ldb, out, ldo, kc, jn);
    else
      strip_tail<T, ROWS - 1, Skip>(a, lda, b, ldb, out, ldo, kc, rows, jn);
  }
}

// All row tiles of one strip: MR blocks, then the remainder. jn as in
// gemm_strip. Under Skip, tile_zero[t] says whether row tile t holds a zero
// in this k-block; tiles without one take the dense body, so the per-k-step
// zero test is only paid where a term can actually be skipped.
template <class T, bool Skip>
void strip_rows(const float* a, i64 lda, const float* b, i64 ldb, float* out, i64 ldo, i64 kc,
                i64 m, i64 jn, const bool* tile_zero) {
  i64 i = 0;
  for (; i + MR <= m; i += MR) {
    if (Skip && tile_zero[i / MR])
      gemm_strip<T, MR, true>(a + i * lda, lda, b, ldb, out + i * ldo, ldo, kc, jn);
    else
      gemm_strip<T, MR, false>(a + i * lda, lda, b, ldb, out + i * ldo, ldo, kc, jn);
  }
  strip_tail<T, MR - 1, Skip>(a + i * lda, lda, b, ldb, out + i * ldo, ldo, kc, m - i, jn);
}

// The loop nest shared by both entry points. For each k-block and each
// NC-column panel, the panel's strips are packed contiguously (zero-padded
// at a ragged edge) by pack(dst, k0, kc, j, jn), which writes columns
// [j, j+jn) of k-rows [k0, k0+kc) as one kc x SW strip. Then MC-row blocks
// of A sweep the panel strip by strip, so the A block stays in L2 across
// the panel's strips and each strip stays in L1 across the block's row
// tiles. With `direct` set, full strips are read in place from B (row
// stride n) and only a ragged edge is packed.
template <class T, bool Skip, class PackStrip>
void gemm_panels(const float* a, float* out, i64 m, i64 k, i64 n, const float* direct,
                 float* panel, const PackStrip& pack) {
  constexpr i64 SW = 2 * T::lanes;
  const i64 n_full = n - n % SW;
  for (i64 k0 = 0; k0 < k; k0 += KC) {
    const i64 kc = min_of(KC, k - k0);
    for (i64 j0 = 0; j0 < n; j0 += NC) {
      const i64 cols = min_of(NC, n - j0);
      const auto in_place = [&](i64 j) { return direct != nullptr && j0 + j < n_full; };
      for (i64 j = 0; j < cols; j += SW)
        if (!in_place(j)) pack(panel + j * kc, k0, kc, j0 + j, min_of(SW, cols - j));
      for (i64 i0 = 0; i0 < m; i0 += MC) {
        const float* ablk = a + i0 * k + k0;
        float* oblk = out + i0 * n + j0;
        const i64 rows = min_of(MC, m - i0);
        bool tile_zero[MC / MR] = {};
        if constexpr (Skip)
          for (i64 t = 0; t + MR <= rows; t += MR)
            for (i64 r = t; r < t + MR; ++r)
              tile_zero[t / MR] = tile_zero[t / MR] || any_zero_in<T>(ablk + r * k, kc);
        for (i64 j = 0; j < cols; j += SW) {
          if (in_place(j))
            strip_rows<T, Skip>(ablk, k, direct + k0 * n + j0 + j, n, oblk + j, n, kc, rows, SW,
                                tile_zero);
          else
            strip_rows<T, Skip>(ablk, k, panel + j * kc, SW, oblk + j, n, kc, rows,
                                min_of(SW, cols - j), tile_zero);
        }
      }
    }
  }
}

template <class T, bool Skip>
void gemm_plain(const float* a, const float* b, float* out, i64 m, i64 k, i64 n, float* panel) {
  constexpr i64 SW = 2 * T::lanes;
  // A short A reuses each strip too few times to pay for packing it.
  const float* direct = m > T::pack_rows ? nullptr : b;
  gemm_panels<T, Skip>(a, out, m, k, n, direct, panel,
                       [&](float* dst, i64 k0, i64 kc, i64 j, i64 jn) {
                         for (i64 kk = 0; kk < kc; ++kk, dst += SW) {
                           const float* src = b + (k0 + kk) * n + j;
                           for (i64 jj = 0; jj < jn; ++jj) dst[jj] = src[jj];
                           for (i64 jj = jn; jj < SW; ++jj) dst[jj] = 0.0f;
                         }
                       });
}

template <class T, bool Skip>
void gemm_transposed(const float* a, const float* bt, float* out, i64 m, i64 k, i64 n,
                     float* panel) {
  constexpr i64 SW = 2 * T::lanes;
  // Transposing pack: reads are sequential along each [n, k] row of B.
  gemm_panels<T, Skip>(a, out, m, k, n, nullptr, panel,
                       [&](float* dst, i64 k0, i64 kc, i64 j, i64 jn) {
                         for (i64 jj = 0; jj < jn; ++jj) {
                           const float* src = bt + (j + jj) * k + k0;
                           for (i64 kk = 0; kk < kc; ++kk) dst[kk * SW + jj] = src[kk];
                         }
                         for (i64 jj = jn; jj < SW; ++jj)
                           for (i64 kk = 0; kk < kc; ++kk) dst[kk * SW + jj] = 0.0f;
                       });
}

template <class T>
void gemm(const float* a, const float* b, float* out, i64 m, i64 k, i64 n, bool skip,
          float* panel) {
  if (skip)
    gemm_plain<T, true>(a, b, out, m, k, n, panel);
  else
    gemm_plain<T, false>(a, b, out, m, k, n, panel);
}

template <class T>
void gemm_bt(const float* a, const float* bt, float* out, i64 m, i64 k, i64 n, bool skip,
             float* panel) {
  if (skip)
    gemm_transposed<T, true>(a, bt, out, m, k, n, panel);
  else
    gemm_transposed<T, false>(a, bt, out, m, k, n, panel);
}

// ---- int8 quantized GEMM ----------------------------------------------------
//
// Mirrors the fp32 structure above — register tiles, k-blocking, zero-
// padded packed edge panels — but every accumulation is int32 and therefore
// exactly associative: no zero-skip gate, no fmadd policy, and bit-identity
// across tile heights, tiers and thread splits holds by construction. The
// operand encoding (shifted-u8 A, 7-bit s8 B, -128*colsum compensation
// base) is documented in kernels.h.

// One ROWS x 16 tile over `groups` k-groups of a packed panel: each row
// holds 16 / lanes int32 accumulator vectors. Per group a row contributes 4
// consecutive shifted-u8 bytes, broadcast as one 32-bit lane, into the
// tier's dot4 (vpdpbusd, vpmaddubsw + vpmaddwd, or plain multiplies — the
// same exact integers). Edge panels stage through a zero-padded row; pad
// lanes are never stored.
template <class T, int ROWS>
inline void qgemm_tile(const std::uint8_t* a, i64 lda, const std::int8_t* panel, std::int32_t* out,
                       i64 ldo, i64 groups, i64 jn) {
  using I = typename T::i32v;
  constexpr i64 L = T::lanes;
  constexpr int P = static_cast<int>(NRQ / L);
  I acc[ROWS][P];
  for (int r = 0; r < ROWS; ++r) {
    if (jn == NRQ) {
      for (int p = 0; p < P; ++p) acc[r][p] = load<I>(out + r * ldo + p * L);
    } else {
      std::int32_t edge[NRQ] = {};  // pad lanes start at zero and are never stored
      __builtin_memcpy(edge, out + r * ldo, static_cast<std::size_t>(jn) * sizeof(std::int32_t));
      for (int p = 0; p < P; ++p) acc[r][p] = load<I>(edge + p * L);
    }
  }
  for (i64 g = 0; g < groups; ++g) {
    I b[P];
    for (int p = 0; p < P; ++p) b[p] = load<I>(panel + g * NRQ * KGQ + p * L * KGQ);
    for (int r = 0; r < ROWS; ++r) {
      std::int32_t a4;
      __builtin_memcpy(&a4, a + r * lda + g * KGQ, sizeof a4);
      for (int p = 0; p < P; ++p) acc[r][p] = T::dot4(acc[r][p], a4, b[p]);
    }
  }
  for (int r = 0; r < ROWS; ++r) {
    if (jn == NRQ) {
      for (int p = 0; p < P; ++p) store(out + r * ldo + p * L, acc[r][p]);
    } else {
      std::int32_t edge[NRQ];
      for (int p = 0; p < P; ++p) store(edge + p * L, acc[r][p]);
      __builtin_memcpy(out + r * ldo, edge, static_cast<std::size_t>(jn) * sizeof(std::int32_t));
    }
  }
}

template <class T, int ROWS>
inline void qgemm_tail(const std::uint8_t* a, i64 lda, const std::int8_t* panel, std::int32_t* out,
                       i64 ldo, i64 groups, i64 rows, i64 jn) {
  if constexpr (ROWS > 0) {
    if (rows == ROWS)
      qgemm_tile<T, ROWS>(a, lda, panel, out, ldo, groups, jn);
    else
      qgemm_tail<T, ROWS - 1>(a, lda, panel, out, ldo, groups, rows, jn);
  }
}

template <class T>
void qgemm(const std::uint8_t* a, i64 lda, const std::int8_t* packed, std::int32_t* out, i64 m,
           i64 k, i64 n) {
  constexpr i64 MRQ = T::qgemm_rows;
  const i64 groups = (k + KGQ - 1) / KGQ;
  for (i64 g0 = 0; g0 < groups; g0 += KCQ) {
    const i64 gc = min_of(KCQ, groups - g0);
    const std::uint8_t* ablk = a + g0 * KGQ;
    for (i64 j = 0, p = 0; j < n; j += NRQ, ++p) {
      const std::int8_t* panel = packed + (p * groups + g0) * NRQ * KGQ;
      const i64 jn = min_of(NRQ, n - j);
      i64 i = 0;
      for (; i + MRQ <= m; i += MRQ)
        qgemm_tile<T, MRQ>(ablk + i * lda, lda, panel, out + i * n + j, n, gc, jn);
      qgemm_tail<T, MRQ - 1>(ablk + i * lda, lda, panel, out + i * n + j, n, gc, m - i, jn);
    }
  }
}

// ---- elementwise vector bodies ----------------------------------------------

template <class T>
inline typename T::i32v bits(typename T::f32v v) {
  return __builtin_bit_cast(typename T::i32v, v);
}

template <class T>
inline typename T::f32v from_bits(typename T::i32v v) {
  return __builtin_bit_cast(typename T::f32v, v);
}

/// mask ? a : b per lane; mask lanes are all-ones or all-zeros (a vector
/// comparison's result).
template <class T>
inline typename T::f32v select(typename T::i32v mask, typename T::f32v a, typename T::f32v b) {
  return from_bits<T>((mask & bits<T>(a)) | (~mask & bits<T>(b)));
}

/// Activation codes: clamp x * inv to ±k_act_qmax in fp32 first, then
/// round to nearest even by adding 1.5·2^23 (exact for |v| <= 127: the sum
/// lands in a binade of ulp 1), whose bit pattern minus the shifter's is
/// the integer. Clamp-then-round equals round-then-clamp on every finite
/// input because rounding is monotone and ±127 round to themselves; a NaN
/// lane fails both comparisons and lands on -127.
template <class T>
inline typename T::i32v quantize_body(typename T::f32v x, float inv) {
  using V = typename T::f32v;
  constexpr float k_qmax = static_cast<float>(quant::k_act_qmax);
  constexpr float k_shifter = 12582912.0f;
  V v = x * inv;
  v = v > -k_qmax ? v : splat<V>(-k_qmax);
  v = v < k_qmax ? v : splat<V>(k_qmax);
  return bits<T>(v + k_shifter) - bits<T>(splat<V>(k_shifter)) + quant::k_act_zero;
}

// Full vectors, then the ragged tail zero-padded through the same body.
template <class T>
void quantize(const float* x, i64 count, float inv, std::uint8_t* out) {
  using V = typename T::f32v;
  using U8 = typename T::u8v;
  constexpr i64 w = T::lanes;
  i64 i = 0;
  for (; i + w <= count; i += w)
    store(out + i, __builtin_convertvector(quantize_body<T>(load<V>(x + i), inv), U8));
  if (i < count) {
    float tail[w] = {};
    __builtin_memcpy(tail, x + i, static_cast<std::size_t>(count - i) * sizeof(float));
    std::uint8_t codes[w];
    store(codes, __builtin_convertvector(quantize_body<T>(load<V>(tail), inv), U8));
    __builtin_memcpy(out + i, codes, static_cast<std::size_t>(count - i));
  }
}

/// e^x. Reduction x = n·ln2 + r with n = round(x / ln2), |r| <= ln2/2
/// (Cody-Waite: ln2 split so n·k_ln2_hi is exact for every n in range), then
/// e^r = 1 + r + r²·p(r) with a degree-5 minimax p, then the result is
/// scaled by 2^n as two exact power-of-two factors, so n = 128 (results
/// just below FLT_MAX) and n = -150 (the smallest denormals) never need an
/// out-of-range exponent field. Plain multiply-then-add throughout (never
/// fmadd), so the bits are the same on every build.
template <class T>
inline typename T::f32v exp_body(typename T::f32v x) {
  using V = typename T::f32v;
  using I = typename T::i32v;
  constexpr float k_hi = 89.0f;     // above ln(FLT_MAX) ≈ 88.72: the result is +Inf
  constexpr float k_lo = -104.0f;   // below ln(2^-150) ≈ -103.97: the result is +0
  constexpr float k_log2e = 1.44269504088896341f;
  constexpr float k_shifter = 12582912.0f;  // 1.5·2^23: adding it rounds to an integer
  constexpr float k_ln2_hi = 0.693359375f;  // 9 significant bits
  constexpr float k_ln2_lo = -2.12194440e-4f;

  // Clamp to [k_lo, k_hi]. A NaN lane compares false and is clamped to
  // k_hi here, so the exponent arithmetic below only ever sees finite
  // inputs; the NaN itself is put back as the result at the end.
  const I is_nan = x != x;
  V xc = x < k_hi ? x : splat<V>(k_hi);
  xc = xc > k_lo ? xc : splat<V>(k_lo);

  // shifted = 1.5·2^23 + n exactly (ulp 1 in that binade), so n is also the
  // difference of the two bit patterns: no float→int conversion needed.
  const V shifted = xc * k_log2e + k_shifter;
  const V n = shifted - k_shifter;
  const V r = (xc - n * k_ln2_hi) - n * k_ln2_lo;

  V p = splat<V>(1.9875691500e-4f);
  p = p * r + 1.3981999507e-3f;
  p = p * r + 8.3334519073e-3f;
  p = p * r + 4.1665795894e-2f;
  p = p * r + 1.6666665459e-1f;
  p = p * r + 5.0000001201e-1f;
  const V y = (p * (r * r) + r) + 1.0f;

  const I ni = bits<T>(shifted) - bits<T>(splat<V>(k_shifter));  // n in [-150, 128]
  const I n1 = ni >> 1;
  const I n2 = ni - n1;
  const V scale1 = from_bits<T>((n1 + 127) << 23);
  const V scale2 = from_bits<T>((n2 + 127) << 23);
  return select<T>(is_nan, x, (y * scale1) * scale2);
}

/// tanh(x) on |x|, sign restored at the end (so tanh(-0) == -0 and the
/// function is exactly odd). Below 0.625 an odd minimax polynomial
/// a + a³·q(a²); above, 1 - 2/(e^{2a} + 1) through exp_body, which saturates
/// to exactly 1 once e^{2a} makes 2/(e^{2a}+1) round away (and for +Inf).
template <class T>
inline typename T::f32v tanh_body(typename T::f32v x) {
  using V = typename T::f32v;
  using I = typename T::i32v;
  constexpr float k_poly_below = 0.625f;
  const I sign = bits<T>(x) & static_cast<std::int32_t>(0x80000000u);
  const V a = from_bits<T>(bits<T>(x) & 0x7fffffff);

  const V z = a * a;
  V q = splat<V>(-5.70498872745e-3f);
  q = q * z + 2.06390887954e-2f;
  q = q * z - 5.37397155531e-2f;
  q = q * z + 1.33314422036e-1f;
  q = q * z - 3.33332819422e-1f;
  const V small = (q * z) * a + a;

  const V e = exp_body<T>(a + a);
  const V large = 1.0f - 2.0f / (e + 1.0f);

  const V t = from_bits<T>(bits<T>(select<T>(a < k_poly_below, small, large)) | sign);
  return select<T>(x != x, x, t);
}

// Full vectors, then the ragged tail zero-padded through the same body, so
// a value's bits never depend on its position or the array's length.
template <class T, typename T::f32v (*Body)(typename T::f32v)>
void map(const float* in, float* out, i64 n) {
  using V = typename T::f32v;
  constexpr i64 w = T::lanes;
  i64 i = 0;
  for (; i + w <= n; i += w) store(out + i, Body(load<V>(in + i)));
  if (i < n) {
    float tail[w] = {};
    __builtin_memcpy(tail, in + i, static_cast<std::size_t>(n - i) * sizeof(float));
    store(tail, Body(load<V>(tail)));
    __builtin_memcpy(out + i, tail, static_cast<std::size_t>(n - i) * sizeof(float));
  }
}

template <class T>
constexpr kernel_table make_table(const char* name, isa tier) {
  return kernel_table{name,
                      tier,
                      2 * T::lanes,
                      T::pack_rows,
                      &gemm<T>,
                      &gemm_bt<T>,
                      &qgemm<T>,
                      &quantize<T>,
                      &map<T, &exp_body<T>>,
                      &map<T, &tanh_body<T>>};
}

}  // namespace
}  // namespace pelta::ops::detail::tier
