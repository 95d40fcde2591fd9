// Blocked GEMM and int8 GEMM entry points, and the runtime tier dispatch.
// See kernels.h for the determinism contract and kernel_tiers.h for the
// tiers; the loop bodies live in tier_body.h, compiled once per tier.
//
// Structure of the fp32 kernel (shared by the plain and transposed-B entry
// points):
//   * Blocking: the k range is walked in KC-deep blocks, ascending; within
//     one, B is taken in NC-column panels and A in MC-row blocks, so the A
//     block stays in L2 while it sweeps a panel and each B strip stays in
//     L1 while the block's row tiles reuse it. Partial sums round-trip
//     through `out` between blocks — a float store/load, value-exact — and
//     per-element k-order is unchanged.
//   * Register strips: the output is computed one MR x SW strip at a time
//     (4 rows x two vectors of the tier's lanes: 4 x 8 on sse2, 4 x 32 on
//     avx512), with the whole k-block loop inside the strip. Its 2*MR
//     vector accumulators fit the register file beside the two B vectors
//     and the A broadcast, so no partial sum touches memory inside the
//     k-loop and each B row load is reused across the 4 output rows. Every
//     path spells the accumulation as the same vector fmadd, lane-for-lane
//     the scalar reference's rounding sequence, which keeps full strips,
//     tails, tiers and any parallel row split bit-identical.
//   * Packing: B strips are copied contiguously (kc x SW) into a scratch
//     panel once A is tall enough to reuse them (kernel_table::pack_rows);
//     a short A reads full strips in place. A ragged column edge (n % SW)
//     is always packed zero-padded, and a full-width strip runs over it,
//     loading and storing only the real columns: pad lanes are never stored
//     and the real columns see the identical operation sequence. The
//     transposed-B entry point packs every strip straight from B's [n, k]
//     rows (sequential reads) instead of materializing the [k, n] transpose.
//     pack_rows was measured as single-thread time, always packing over
//     always reading in place, on 8 (k, n) operand shapes from 32x32 to
//     144x1024 (4 vCPU x86-64 host):
//       - every tier, <= 8 rows: packing is 1.1-2.9x slower (1 row: 2.0-2.9x);
//       - sse2: packing is 0.97-1.23x from 12 to 32 rows (one outlier, 8x17
//         at 16 rows, read 0.78) and within +-6% above, so 32 rows;
//       - avx2 / avx512: packing wins from about 16 rows on a B that
//         outgrows L1 (144x1024: 0.58-0.90) and still loses 1.05-1.3x on one
//         that fits (32x32), so 16 rows.
//   * Zero-skip gate: decided ONCE per call here, from the operand's
//     finiteness (kernels.h). Within it, only row tiles holding a zero in
//     the current k-block run the skipping body; there a k-step with no
//     zero takes the FMA path and one with a zero a masked select
//     `av != 0 ? fmadd(av, b, acc) : acc` — bit-exact with the classic
//     per-element skip, without a branch per row.
//
// The scratch panel is checked out here, in a TU built with the baseline
// flags, so no tier TU instantiates the arena's inline members.
#include "tensor/kernels.h"

#include <algorithm>

#include "tensor/check.h"
#include "tensor/scratch.h"

namespace pelta::ops::detail {

bool any_zero_in(const float* p, std::int64_t count) {
  std::int64_t i = 0;
  for (; i + k_scan_block <= count; i += k_scan_block) {
    scan_i32x4 hit = {};
    for (std::int64_t q = 0; q < k_scan_block; q += 4) {
      scan_f32x4 v;
      __builtin_memcpy(&v, p + i + q, sizeof v);
      hit |= v == scan_f32x4{};
    }
    if (any_lane(hit)) return true;
  }
  bool hit = false;
  for (; i < count; ++i) hit |= p[i] == 0.0f;
  return hit;
}

namespace {

// Floats of the packed B panel: one k-block (KC deep, or k when shallower)
// of NC columns (fewer when n is narrower), rounded up to whole strips.
std::size_t panel_floats(const kernel_table& t, std::int64_t k, std::int64_t n) {
  const std::int64_t cols = std::min(k_gemm_nc, (n + t.gemm_nr - 1) / t.gemm_nr * t.gemm_nr);
  return static_cast<std::size_t>(std::min(k_gemm_kc, k) * cols);
}

// The widest tier at or below `t` whose register strip is no wider than
// the n output columns. A strip wider than the whole matrix spends most of
// its lanes on padding and packs every call (a ragged edge always packs),
// which made the per-head attention GEMMs (n = 8 and 17) slower on the
// 32-column avx512 strip than on sse2's 8. Every tier gives the same bits,
// so the choice is free.
const kernel_table& fit_columns(const kernel_table& t, std::int64_t n) {
  const kernel_table* fit = &t;
  while (fit->gemm_nr > n && fit->tier != isa::sse2)
    fit = &kernels_for(static_cast<isa>(static_cast<int>(fit->tier) - 1));
  return *fit;
}

isa detect_host_isa() {
#if defined(PELTA_X86_TIERS)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512vl") && __builtin_cpu_supports("avx512vnni"))
    return isa::avx512;
  if (__builtin_cpu_supports("avx2")) return isa::avx2;
#endif
  return isa::sse2;
}

// Non-null while a tier_override is live.
std::atomic<const kernel_table*> g_override{nullptr};

}  // namespace

isa host_isa() {
  static const isa tier = detect_host_isa();
  return tier;
}

const kernel_table& kernels_for(isa tier) {
  PELTA_CHECK_MSG(static_cast<int>(tier) <= static_cast<int>(host_isa()),
                  "kernel tier " << static_cast<int>(tier) << " is above this host's "
                                 << kernels_for(host_isa()).name);
  switch (tier) {
#if defined(PELTA_X86_TIERS)
    case isa::avx512: return avx512::table;
    case isa::avx2: return avx2::table;
#endif
    default: return sse2::table;
  }
}

const kernel_table& active_kernels() {
  static const kernel_table& host = kernels_for(host_isa());
  const kernel_table* t = g_override.load(std::memory_order_acquire);
  return t != nullptr ? *t : host;
}

tier_override::tier_override(isa tier)
    : previous_{g_override.exchange(&kernels_for(tier), std::memory_order_acq_rel)} {}

tier_override::~tier_override() { g_override.store(previous_, std::memory_order_release); }

void gemm_accumulate(const float* a, const float* b, float* out, std::int64_t m, std::int64_t k,
                     std::int64_t n, finite_cache& b_finite) {
  if (m <= 0 || n <= 0 || k <= 0) return;  // no terms: out is the base, untouched
  const kernel_table& t = fit_columns(active_kernels(), n);
  // Gate decided once per call, never inside the loops. A is pre-scanned
  // first: a dense A has nothing to skip, so — exactly like the old lazy
  // gate — it neither consults nor scans B, and it runs the branch-free
  // dense path outright. Only a call whose A contains zeros pays the
  // (cached, once-per-operand) B scan. The pre-scan is O(m*k) but not free
  // on a shallow GEMM: on a ViT per-token linear shape (m 544, k 32, n 32;
  // avx512 tier, one thread; bench_kernels' gate_overhead rows) this call
  // takes about 20 µs against 17 µs for the tier kernel alone, and took
  // 39 µs while the scan was a per-element early-exit loop.
  const bool skip = any_zero_in(a, m * k) && b_finite.check(b, k * n);
  // A short A with whole strips reads every strip in place: no panel.
  scratch_buffer panel;
  if (m > t.pack_rows || n % t.gemm_nr != 0)
    panel = scratch_arena::local().take(panel_floats(t, k, n));
  t.gemm(a, b, out, m, k, n, skip, panel.data());
}

void gemm_accumulate_bt(const float* a, const float* bt, float* out, std::int64_t m,
                        std::int64_t k, std::int64_t n, finite_cache& bt_finite) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  const kernel_table& t = fit_columns(active_kernels(), n);
  const bool skip = any_zero_in(a, m * k) && bt_finite.check(bt, n * k);
  scratch_buffer panel = scratch_arena::local().take(panel_floats(t, k, n));
  t.gemm_bt(a, bt, out, m, k, n, skip, panel.data());
}

void qgemm_pack_b(const std::int8_t* b, std::int64_t k, std::int64_t n, std::int8_t* packed) {
  const std::int64_t groups = qgemm_k_groups(k);
  const std::int64_t panels = (n + k_qgemm_nr - 1) / k_qgemm_nr;
  for (std::int64_t p = 0; p < panels; ++p) {
    std::int8_t* dst = packed + p * groups * k_qgemm_nr * k_qgemm_kg;
    for (std::int64_t g = 0; g < groups; ++g) {
      for (std::int64_t j = 0; j < k_qgemm_nr; ++j) {
        const std::int64_t col = p * k_qgemm_nr + j;
        for (std::int64_t kk = 0; kk < k_qgemm_kg; ++kk) {
          const std::int64_t row = g * k_qgemm_kg + kk;
          dst[g * k_qgemm_nr * k_qgemm_kg + j * k_qgemm_kg + kk] =
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
  // The -128*colsum compensation is the accumulation base; the tier's tiles
  // then add the raw shifted-u8 products on top (see kernels.h).
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) out[i * n + j] = -128 * colsum[j];
  if (k <= 0) return;
  active_kernels().qgemm(a, lda, packed, out, m, k, n);
}

}  // namespace pelta::ops::detail
