// Blocked GEMM micro-kernels. See kernels.h for the determinism contract.
//
// Structure (shared by the plain and transposed-B entry points):
//   * Blocking: the k range is walked in KC-deep blocks, ascending; within
//     one, B is taken in NC-column panels and A in MC-row blocks, so the A
//     block stays in L2 while it sweeps a panel and each B strip stays in
//     L1 while the block's row tiles reuse it. Partial sums round-trip
//     through `out` between blocks — a float store/load, value-exact — and
//     per-element k-order is unchanged.
//   * Register strips: the output is computed one MR x SW strip at a time
//     (4 rows x two f32v vectors: 4 x 8 on SSE2), with the whole k-block
//     loop inside the strip. Its 2*MR vector accumulators fit the register
//     file beside the two B vectors and the A broadcast, so no partial sum
//     touches memory inside the k-loop and each B row load is reused across
//     the 4 output rows. Every path spells the accumulation as the same
//     vector fmadd (kernels.h), lane-for-lane the scalar reference's
//     rounding sequence, which keeps full strips, tails, and any parallel
//     row split bit-identical.
//   * Packing: B strips are copied contiguously (kc x SW) from the thread's
//     scratch arena once A is tall enough to reuse them (k_pack_rows, a
//     measured crossover); a short A reads full strips in place. A ragged column edge (n % SW) is always packed
//     zero-padded, and a full-width strip runs over it, loading and storing
//     only the real columns: pad lanes are never stored and the real columns
//     see the identical operation sequence. The transposed-B entry point
//     packs every strip straight from B's [n, k] rows (sequential reads)
//     instead of materializing the [k, n] transpose.
//   * Zero-skip gate: decided ONCE per call from the operand's finiteness
//     (kernels.h). Within it, only row tiles holding a zero in the current
//     k-block run the skipping body; there a k-step with no zero takes the
//     FMA path and one with a zero a masked select
//     `av != 0 ? fmadd(av, b, acc) : acc` — bit-exact with the classic
//     per-element skip, without a branch per row.
#include "tensor/kernels.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "tensor/check.h"
#include "tensor/scratch.h"

namespace pelta::ops::detail {

namespace {

constexpr std::int64_t MR = k_gemm_mr;  // rows per register strip
constexpr std::int64_t SW = k_gemm_nr;  // columns per register strip: two vectors
constexpr int VL = k_gemm_lanes;        // lanes per vector
constexpr std::int64_t KC = 256;        // k-block: a packed B strip is KC*SW floats
constexpr std::int64_t NC = 256;        // columns per packed B panel (KC*NC = 256 KB)
constexpr std::int64_t MC = 64;         // rows per A block swept over one panel
// Above this many rows of A, full B strips are packed contiguously (which
// also dodges the L1 set aliasing of a power-of-two row stride); at or
// below it they are read in place. Measured as single-thread time, always
// packing over always reading in place, on 8 (k, n) operand shapes from
// 32x32 to 144x1024 (4 vCPU x86-64 host):
//   * every tier, <= 8 rows: packing is 1.1-2.9x slower (1 row: 2.0-2.9x);
//   * SSE2 (portable): packing is 0.97-1.23x from 12 to 32 rows (one
//     outlier, 8x17 at 16 rows, read 0.78) and within +-6% above;
//   * AVX2 / AVX-512: packing wins from about 16 rows on a B that outgrows
//     L1 (144x1024: 0.58-0.90) and still loses 1.05-1.3x on one that fits
//     (32x32), so the crossover is 16 rows.
constexpr std::int64_t k_pack_rows = VL == 4 ? 32 : 16;

using i32v = std::int32_t __attribute__((vector_size(4 * VL)));

inline f32v load(const float* p) {
  f32v v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store(float* p, f32v v) { std::memcpy(p, &v, sizeof v); }

// Broadcast as one brace-initializer ({s, s, ...}), which GCC lowers to a
// single shuffle; a per-lane store loop compiles to lane-insert chains.
template <std::size_t... I>
inline f32v splat_lanes(float s, std::index_sequence<I...>) {
  return f32v{((void)I, s)...};
}

inline f32v splat(float s) { return splat_lanes(s, std::make_index_sequence<VL>{}); }

// av != 0 ? t : acc per lane — the masked select that is bit-exact with
// skipping the term (it also keeps a -0.0 accumulator's sign).
inline f32v select_nonzero(f32v av, f32v t, f32v acc) {
  const i32v keep = av != f32v{};
  return std::bit_cast<f32v>((std::bit_cast<i32v>(t) & keep) |
                             (std::bit_cast<i32v>(acc) & ~keep));
}

bool any_zero_in(const float* p, std::int64_t count) {
  for (std::int64_t i = 0; i < count; ++i)
    if (p[i] == 0.0f) return true;
  return false;
}

// One ROWS x SW strip over k-block rows [0, kc) of B.
//   a:   ROWS rows, stride lda, k-offset already applied
//   b:   kc rows, stride ldb; SW columns readable (a packed strip zero-pads)
//   out: ROWS rows, stride ldo; only the first jn <= SW columns are loaded
//        and stored (jn < SW only on a zero-padded edge strip, whose pad
//        lanes are compute-only)
template <int ROWS, bool Skip>
inline void gemm_strip(const float* a, std::int64_t lda, const float* b, std::int64_t ldb,
                       float* out, std::int64_t ldo, std::int64_t kc, std::int64_t jn) {
  f32v lo[ROWS];
  f32v hi[ROWS];
  for (int r = 0; r < ROWS; ++r) {
    if (jn == SW) {
      lo[r] = load(out + r * ldo);
      hi[r] = load(out + r * ldo + VL);
    } else {
      float edge[SW] = {};  // pad lanes start at zero and are never stored
      std::memcpy(edge, out + r * ldo, static_cast<std::size_t>(jn) * sizeof(float));
      lo[r] = load(edge);
      hi[r] = load(edge + VL);
    }
  }
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    const f32v b0 = load(b + kk * ldb);
    const f32v b1 = load(b + kk * ldb + VL);
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
        const f32v v = splat(av[r]);
        lo[r] = fmadd(v, b0, lo[r]);
        hi[r] = fmadd(v, b1, hi[r]);
      }
    } else {
      // Some row skips: masked select, bit-exact with skipping the update.
      for (int r = 0; r < ROWS; ++r) {
        const f32v v = splat(av[r]);
        lo[r] = select_nonzero(v, fmadd(v, b0, lo[r]), lo[r]);
        hi[r] = select_nonzero(v, fmadd(v, b1, hi[r]), hi[r]);
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
      std::memcpy(out + r * ldo, edge, static_cast<std::size_t>(jn) * sizeof(float));
    }
  }
}

// All row tiles of one strip: MR blocks, then the 3/2/1 remainder through
// the same template body at smaller ROWS. jn as in gemm_strip. Under Skip,
// tile_zero[t] says whether row tile t holds a zero in this k-block; tiles
// without one take the dense body, so the per-k-step zero test is only paid
// where a term can actually be skipped.
template <bool Skip>
void strip_rows(const float* a, std::int64_t lda, const float* b, std::int64_t ldb, float* out,
                std::int64_t ldo, std::int64_t kc, std::int64_t m, std::int64_t jn,
                const bool* tile_zero) {
  std::int64_t i = 0;
  for (; i + MR <= m; i += MR) {
    if (Skip && tile_zero[i / MR])
      gemm_strip<MR, true>(a + i * lda, lda, b, ldb, out + i * ldo, ldo, kc, jn);
    else
      gemm_strip<MR, false>(a + i * lda, lda, b, ldb, out + i * ldo, ldo, kc, jn);
  }
  switch (m - i) {
    case 3: gemm_strip<3, Skip>(a + i * lda, lda, b, ldb, out + i * ldo, ldo, kc, jn); break;
    case 2: gemm_strip<2, Skip>(a + i * lda, lda, b, ldb, out + i * ldo, ldo, kc, jn); break;
    case 1: gemm_strip<1, Skip>(a + i * lda, lda, b, ldb, out + i * ldo, ldo, kc, jn); break;
    default: break;
  }
}

// The loop nest shared by both entry points. For each k-block and each
// NC-column panel, the panel's strips are packed contiguously (zero-padded
// at a ragged edge) by pack(dst, k0, kc, j, jn), which writes columns
// [j, j+jn) of k-rows [k0, k0+kc) as one kc x SW strip. Then MC-row blocks
// of A sweep the panel strip by strip, so the A block stays in L2 across
// the panel's strips and each strip stays in L1 across the block's row
// tiles. With `direct` set, full strips are read in place from B (row
// stride n) and only a ragged edge is packed.
template <bool Skip, class PackStrip>
void gemm_panels(const float* a, float* out, std::int64_t m, std::int64_t k, std::int64_t n,
                 const float* direct, const PackStrip& pack) {
  const std::int64_t n_full = n - n % SW;
  scratch_buffer panel_buf;
  if (direct == nullptr || n_full < n) {
    const std::int64_t panel_cols = std::min(NC, (n + SW - 1) / SW * SW);
    panel_buf = scratch_arena::local().take(static_cast<std::size_t>(KC * panel_cols));
  }
  float* panel = panel_buf.data();
  for (std::int64_t k0 = 0; k0 < k; k0 += KC) {
    const std::int64_t kc = std::min(KC, k - k0);
    for (std::int64_t j0 = 0; j0 < n; j0 += NC) {
      const std::int64_t cols = std::min(NC, n - j0);
      const auto in_place = [&](std::int64_t j) { return direct != nullptr && j0 + j < n_full; };
      for (std::int64_t j = 0; j < cols; j += SW)
        if (!in_place(j)) pack(panel + j * kc, k0, kc, j0 + j, std::min(SW, cols - j));
      for (std::int64_t i0 = 0; i0 < m; i0 += MC) {
        const float* ablk = a + i0 * k + k0;
        float* oblk = out + i0 * n + j0;
        const std::int64_t rows = std::min(MC, m - i0);
        bool tile_zero[MC / MR] = {};
        if constexpr (Skip)
          for (std::int64_t t = 0; t + MR <= rows; t += MR)
            for (std::int64_t r = t; r < t + MR; ++r)
              tile_zero[t / MR] = tile_zero[t / MR] || any_zero_in(ablk + r * k, kc);
        for (std::int64_t j = 0; j < cols; j += SW) {
          if (in_place(j))
            strip_rows<Skip>(ablk, k, direct + k0 * n + j0 + j, n, oblk + j, n, kc, rows, SW,
                             tile_zero);
          else
            strip_rows<Skip>(ablk, k, panel + j * kc, SW, oblk + j, n, kc, rows,
                             std::min(SW, cols - j), tile_zero);
        }
      }
    }
  }
}

template <bool Skip>
void gemm_blocked(const float* a, const float* b, float* out, std::int64_t m, std::int64_t k,
                  std::int64_t n) {
  // A short A reuses each strip too few times to pay for packing it.
  const float* direct = m > k_pack_rows ? nullptr : b;
  gemm_panels<Skip>(a, out, m, k, n, direct,
                    [&](float* dst, std::int64_t k0, std::int64_t kc, std::int64_t j,
                        std::int64_t jn) {
                      for (std::int64_t kk = 0; kk < kc; ++kk, dst += SW) {
                        const float* src = b + (k0 + kk) * n + j;
                        for (std::int64_t jj = 0; jj < jn; ++jj) dst[jj] = src[jj];
                        for (std::int64_t jj = jn; jj < SW; ++jj) dst[jj] = 0.0f;
                      }
                    });
}

template <bool Skip>
void gemm_bt_blocked(const float* a, const float* bt, float* out, std::int64_t m, std::int64_t k,
                     std::int64_t n) {
  // Transposing pack: reads are sequential along each [n, k] row of B.
  gemm_panels<Skip>(a, out, m, k, n, nullptr,
                    [&](float* dst, std::int64_t k0, std::int64_t kc, std::int64_t j,
                        std::int64_t jn) {
                      for (std::int64_t jj = 0; jj < jn; ++jj) {
                        const float* src = bt + (j + jj) * k + k0;
                        for (std::int64_t kk = 0; kk < kc; ++kk) dst[kk * SW + jj] = src[kk];
                      }
                      for (std::int64_t jj = jn; jj < SW; ++jj)
                        for (std::int64_t kk = 0; kk < kc; ++kk) dst[kk * SW + jj] = 0.0f;
                    });
}

// ---- int8 quantized GEMM ----------------------------------------------------
//
// Mirrors the fp32 structure above — MR x 16 register tiles, k-blocking,
// zero-padded packed edge panels — but every accumulation is int32 and
// therefore exactly associative: no zero-skip gate, no fmadd policy, and
// bit-identity across tile shapes, ISAs and thread splits holds by
// construction rather than by rounding-sequence discipline. The operand
// encoding (shifted-u8 A, 7-bit s8 B, -128*colsum compensation base) is
// documented in kernels.h.

constexpr std::int64_t KGQ = k_qgemm_kg;  // 4 k-bytes per group (one vpmaddubsw lane)
constexpr std::int64_t NRQ = k_qgemm_nr;  // 16-column packed panels
constexpr std::int64_t KCQ = 256;         // k-groups per block: 1024 k, 16 KB panel block

#if defined(__AVX512VNNI__) && defined(__AVX512F__)

// One ROWS x 16 tile, 512-bit VNNI form: a packed k-group is exactly one
// zmm (16 columns x 4 k-bytes), so each (group, row) step is a single
// vpdpbusd — u8*s8 quads summed straight into the 16 int32 column lanes,
// the same exact integers as the AVX2 and scalar forms. Edge panels use
// lane masks instead of staging buffers; masked-off lanes load as zero and
// are never stored.
template <int ROWS>
inline void qgemm_tile_vnni512(const std::uint8_t* a, std::int64_t lda, const std::int8_t* panel,
                               std::int32_t* out, std::int64_t ldo, std::int64_t groups,
                               std::int64_t jn) {
  const __mmask16 lanes = static_cast<__mmask16>((1u << jn) - 1u);
  __m512i acc[ROWS];
  for (int r = 0; r < ROWS; ++r) acc[r] = _mm512_maskz_loadu_epi32(lanes, out + r * ldo);
  for (std::int64_t g = 0; g < groups; ++g) {
    const __m512i b = _mm512_loadu_si512(panel + g * NRQ * KGQ);
    for (int r = 0; r < ROWS; ++r) {
      std::int32_t a4;
      std::memcpy(&a4, a + r * lda + g * KGQ, sizeof(a4));
      acc[r] = _mm512_dpbusd_epi32(acc[r], _mm512_set1_epi32(a4), b);
    }
  }
  for (int r = 0; r < ROWS; ++r) _mm512_mask_storeu_epi32(out + r * ldo, lanes, acc[r]);
}

#elif defined(__AVX2__)

// One ROWS x 16 tile over `groups` k-groups of a packed panel. Per group a
// row contributes 4 consecutive shifted-u8 bytes, broadcast as one 32-bit
// lane. With VNNI one vpdpbusd forms the u8*s8 quad dot product straight
// into the int32 column lanes; the plain-AVX2 fallback gets the same exact
// integers from vpmaddubsw (|pair| <= 2*255*63 = 32130 < 2^15, so the
// int16 stage cannot saturate) widened by vpmaddwd.
template <int ROWS>
inline void qgemm_tile_avx2(const std::uint8_t* a, std::int64_t lda, const std::int8_t* panel,
                            std::int32_t* out, std::int64_t ldo, std::int64_t groups,
                            std::int64_t jn) {
  __m256i accl[ROWS];  // columns 0..7
  __m256i acch[ROWS];  // columns 8..15
  if (jn == NRQ) {
    for (int r = 0; r < ROWS; ++r) {
      accl[r] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(out + r * ldo));
      acch[r] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(out + r * ldo + 8));
    }
  } else {
    alignas(32) std::int32_t tmp[NRQ];
    for (int r = 0; r < ROWS; ++r) {
      for (std::int64_t j = 0; j < jn; ++j) tmp[j] = out[r * ldo + j];
      for (std::int64_t j = jn; j < NRQ; ++j) tmp[j] = 0;  // pad lanes, never stored
      accl[r] = _mm256_load_si256(reinterpret_cast<const __m256i*>(tmp));
      acch[r] = _mm256_load_si256(reinterpret_cast<const __m256i*>(tmp + 8));
    }
  }
#if !(defined(__AVX512VNNI__) && defined(__AVX512VL__)) && !defined(__AVXVNNI__)
  const __m256i ones = _mm256_set1_epi16(1);
#endif
  for (std::int64_t g = 0; g < groups; ++g) {
    const __m256i b0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(panel + g * NRQ * KGQ));
    const __m256i b1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(panel + g * NRQ * KGQ + 32));
    for (int r = 0; r < ROWS; ++r) {
      std::int32_t a4;
      std::memcpy(&a4, a + r * lda + g * KGQ, sizeof(a4));
      const __m256i av = _mm256_set1_epi32(a4);
#if defined(__AVX512VNNI__) && defined(__AVX512VL__)
      accl[r] = _mm256_dpbusd_epi32(accl[r], av, b0);
      acch[r] = _mm256_dpbusd_epi32(acch[r], av, b1);
#elif defined(__AVXVNNI__)
      accl[r] = _mm256_dpbusd_avx_epi32(accl[r], av, b0);
      acch[r] = _mm256_dpbusd_avx_epi32(acch[r], av, b1);
#else
      const __m256i p0 = _mm256_maddubs_epi16(av, b0);
      const __m256i p1 = _mm256_maddubs_epi16(av, b1);
      accl[r] = _mm256_add_epi32(accl[r], _mm256_madd_epi16(p0, ones));
      acch[r] = _mm256_add_epi32(acch[r], _mm256_madd_epi16(p1, ones));
#endif
    }
  }
  if (jn == NRQ) {
    for (int r = 0; r < ROWS; ++r) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + r * ldo), accl[r]);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + r * ldo + 8), acch[r]);
    }
  } else {
    alignas(32) std::int32_t tmp[NRQ];
    for (int r = 0; r < ROWS; ++r) {
      _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), accl[r]);
      _mm256_store_si256(reinterpret_cast<__m256i*>(tmp + 8), acch[r]);
      for (std::int64_t j = 0; j < jn; ++j) out[r * ldo + j] = tmp[j];
    }
  }
}

#else

// Portable tile: same packed layout, same per-group 4-byte dot products,
// int32 from the first multiply — integer-exact, so bitwise identical to
// the AVX2 instantiation (pad products are exact zeros on both paths).
template <int ROWS>
inline void qgemm_tile_scalar(const std::uint8_t* a, std::int64_t lda, const std::int8_t* panel,
                              std::int32_t* out, std::int64_t ldo, std::int64_t groups,
                              std::int64_t jn) {
  std::int32_t iacc[ROWS][NRQ];
  for (int r = 0; r < ROWS; ++r) {
    for (std::int64_t j = 0; j < jn; ++j) iacc[r][j] = out[r * ldo + j];
    for (std::int64_t j = jn; j < NRQ; ++j) iacc[r][j] = 0;  // pad lanes
  }
  for (std::int64_t g = 0; g < groups; ++g) {
    const std::int8_t* bg = panel + g * NRQ * KGQ;
    for (int r = 0; r < ROWS; ++r) {
      const std::uint8_t* ag = a + r * lda + g * KGQ;
      for (std::int64_t j = 0; j < NRQ; ++j) {
        const std::int8_t* bj = bg + j * KGQ;
        iacc[r][j] += static_cast<std::int32_t>(ag[0]) * bj[0] +
                      static_cast<std::int32_t>(ag[1]) * bj[1] +
                      static_cast<std::int32_t>(ag[2]) * bj[2] +
                      static_cast<std::int32_t>(ag[3]) * bj[3];
      }
    }
  }
  for (int r = 0; r < ROWS; ++r)
    for (std::int64_t j = 0; j < jn; ++j) out[r * ldo + j] = iacc[r][j];
}

#endif

template <int ROWS>
inline void qgemm_tile(const std::uint8_t* a, std::int64_t lda, const std::int8_t* panel,
                       std::int32_t* out, std::int64_t ldo, std::int64_t groups,
                       std::int64_t jn) {
#if defined(__AVX512VNNI__) && defined(__AVX512F__)
  qgemm_tile_vnni512<ROWS>(a, lda, panel, out, ldo, groups, jn);
#elif defined(__AVX2__)
  qgemm_tile_avx2<ROWS>(a, lda, panel, out, ldo, groups, jn);
#else
  qgemm_tile_scalar<ROWS>(a, lda, panel, out, ldo, groups, jn);
#endif
}

// Primary row-tile height. The 512-bit VNNI tile holds one zmm accumulator
// per row (32 registers available), so 8 rows amortize the panel load and
// keep 8 independent vpdpbusd dependency chains in flight; the ymm forms
// need two accumulators per row and stay at the fp32 MR to fit 16
// registers.
#if defined(__AVX512VNNI__) && defined(__AVX512F__)
constexpr std::int64_t MRQ = 8;
#else
constexpr std::int64_t MRQ = MR;
#endif

// All row tiles of one packed column panel: MRQ blocks, then the remainder
// — the fp32 panel_rows shape, minus Skip/JSTORE templating (the store
// mask is the runtime `jn`; integer results cannot drift).
void qgemm_panel_rows(const std::uint8_t* a, std::int64_t lda, const std::int8_t* panel,
                      std::int32_t* out, std::int64_t ldo, std::int64_t groups, std::int64_t m,
                      std::int64_t jn) {
  std::int64_t i = 0;
  for (; i + MRQ <= m; i += MRQ)
    qgemm_tile<MRQ>(a + i * lda, lda, panel, out + i * ldo, ldo, groups, jn);
  switch (m - i) {
    case 7: qgemm_tile<7>(a + i * lda, lda, panel, out + i * ldo, ldo, groups, jn); break;
    case 6: qgemm_tile<6>(a + i * lda, lda, panel, out + i * ldo, ldo, groups, jn); break;
    case 5: qgemm_tile<5>(a + i * lda, lda, panel, out + i * ldo, ldo, groups, jn); break;
    case 4: qgemm_tile<4>(a + i * lda, lda, panel, out + i * ldo, ldo, groups, jn); break;
    case 3: qgemm_tile<3>(a + i * lda, lda, panel, out + i * ldo, ldo, groups, jn); break;
    case 2: qgemm_tile<2>(a + i * lda, lda, panel, out + i * ldo, ldo, groups, jn); break;
    case 1: qgemm_tile<1>(a + i * lda, lda, panel, out + i * ldo, ldo, groups, jn); break;
    default: break;
  }
}

}  // namespace

void gemm_accumulate(const float* a, const float* b, float* out, std::int64_t m, std::int64_t k,
                     std::int64_t n, finite_cache& b_finite) {
  if (m <= 0 || n <= 0 || k <= 0) return;  // no terms: out is the base, untouched
  // Gate decided once per call, never inside the loops. A is pre-scanned
  // first (O(m*k), a 1/(2n) fraction of the GEMM): a dense A has nothing to
  // skip, so — exactly like the old lazy gate — it neither consults nor
  // scans B, and it runs the branch-free dense path outright. Only a call
  // whose A contains zeros pays the (cached, once-per-operand) B scan.
  if (any_zero_in(a, m * k) && b_finite.check(b, k * n))
    gemm_blocked<true>(a, b, out, m, k, n);
  else
    gemm_blocked<false>(a, b, out, m, k, n);
}

void gemm_accumulate_bt(const float* a, const float* bt, float* out, std::int64_t m,
                        std::int64_t k, std::int64_t n, finite_cache& bt_finite) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  if (any_zero_in(a, m * k) && bt_finite.check(bt, n * k))
    gemm_bt_blocked<true>(a, bt, out, m, k, n);
  else
    gemm_bt_blocked<false>(a, bt, out, m, k, n);
}

void qgemm_pack_b(const std::int8_t* b, std::int64_t k, std::int64_t n, std::int8_t* packed) {
  const std::int64_t groups = qgemm_k_groups(k);
  const std::int64_t panels = (n + NRQ - 1) / NRQ;
  for (std::int64_t p = 0; p < panels; ++p) {
    std::int8_t* dst = packed + p * groups * NRQ * KGQ;
    for (std::int64_t g = 0; g < groups; ++g) {
      for (std::int64_t j = 0; j < NRQ; ++j) {
        const std::int64_t col = p * NRQ + j;
        for (std::int64_t kk = 0; kk < KGQ; ++kk) {
          const std::int64_t row = g * KGQ + kk;
          dst[g * NRQ * KGQ + j * KGQ + kk] =
              (col < n && row < k) ? b[row * n + col] : std::int8_t{0};
        }
      }
    }
  }
}

void qgemm(const std::uint8_t* a, std::int64_t lda, const std::int8_t* packed,
           const std::int32_t* colsum, std::int32_t* out, std::int64_t m, std::int64_t k,
           std::int64_t n) {
  if (m <= 0 || n <= 0) return;
  PELTA_CHECK_MSG(lda >= qgemm_row_stride(k), "qgemm A row stride " << lda << " < k " << k);
  // |base| + |raw| <= k * 63 * (128 + 255): depth 65536 still clears int32.
  PELTA_CHECK_MSG(k <= 65536, "qgemm depth " << k << " overflows int32 accumulation");
  // The -128*colsum compensation is the accumulation base; the tiles then
  // add the raw shifted-u8 products on top (see kernels.h).
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) out[i * n + j] = -128 * colsum[j];
  if (k <= 0) return;
  const std::int64_t groups = qgemm_k_groups(k);
  for (std::int64_t g0 = 0; g0 < groups; g0 += KCQ) {
    const std::int64_t gc = std::min(KCQ, groups - g0);
    const std::uint8_t* ablk = a + g0 * KGQ;
    for (std::int64_t j = 0, p = 0; j < n; j += NRQ, ++p) {
      const std::int8_t* panel = packed + (p * groups + g0) * NRQ * KGQ;
      qgemm_panel_rows(ablk, lda, panel, out + j, n, gc, m, std::min(NRQ, n - j));
    }
  }
}

}  // namespace pelta::ops::detail
