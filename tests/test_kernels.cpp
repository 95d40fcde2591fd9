// Kernel suite for the blocked GEMM micro-kernels and the scratch arena.
//
// The blocked kernels promise bit-identity with the classic i-k-j loop on
// every path (full register tiles, row tails, column tails, any row split a
// parallel chunking might produce) and on every kernel tier the host can
// run (kernel_tiers.h) — each case here compares against a frozen copy of
// the pre-blocked reference kernel with memcmp, not a tolerance. The
// static initializer pins PELTA_THREADS=8 (without overriding an explicit
// environment setting) so the pooled runs really cross threads even on
// single-core hosts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "autodiff/ops_linalg.h"
#include "kernel_tiers.h"
#include "models/model.h"
#include "models/zoo.h"
#include "reference_kernels.h"
#include "tensor/conv.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/parallel.h"
#include "tensor/rng.h"
#include "tensor/scratch.h"
#include "tensor/tensor.h"

namespace pelta {
namespace {

const bool k_threads_pinned = [] {
  setenv("PELTA_THREADS", "8", /*overwrite=*/0);
  return true;
}();

using ops::detail::finite_cache;
using ops::detail::gemm_accumulate;
using ops::detail::gemm_accumulate_bt;
using ops::detail::k_gemm_mr;
using ops::detail::kernel_table;
using ops::reference::reference_gemm;  // THE frozen pre-PR baseline
using testing::for_each_tier;

// Operand with zeros sprinkled in (the skip path must see real zeros).
std::vector<float> random_operand(rng& gen, std::int64_t count, float zero_fraction) {
  std::vector<float> v(static_cast<std::size_t>(count));
  for (float& x : v)
    x = gen.bernoulli(zero_fraction) ? 0.0f : gen.uniform(-1.0f, 1.0f);
  return v;
}

bool bits_equal(const std::vector<float>& x, const std::vector<float>& y) {
  return x.size() == y.size() &&
         (x.empty() || std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0);
}

TEST(BlockedGemm, BitEqualsReferenceOnEdgeShapes) {
  rng gen{41};
  // Every combination straddling the register strip: empty, single,
  // strip-1, strip, strip+1 for both MR (rows) and NR (columns, per tier),
  // two strips, rows on both sides of the B-packing threshold (16 or 32 by
  // tier) and of the A block (64), columns on both sides of the packed
  // panel (256) and a full strip past it, depths on both sides of the
  // k-block (256), plus non-multiples.
  for_each_tier([&](const kernel_table& tier) {
    constexpr auto mr = static_cast<std::int64_t>(k_gemm_mr);
    const std::int64_t nr = tier.gemm_nr;
    const std::vector<std::int64_t> row_dims{0, 1, 3, 4, 5, 11, 16, 17, 32, 33, 70};
    const std::vector<std::int64_t> k_dims{0, 1, 2, 7, 19, 257};
    const std::vector<std::int64_t> col_dims{0,      1,      3,      mr - 1, 4,  5,  15, nr - 1, nr,
                                             nr + 1, 17,     37,     2 * nr - 1, 2 * nr,
                                             2 * nr + 1, 64, 65, 263, 256 + nr + 1};
    for (const bool zero_rows : {false, true})
      for (std::int64_t m : row_dims)
        for (std::int64_t k : k_dims)
          for (std::int64_t n : col_dims) {
            std::vector<float> a = random_operand(gen, m * k, 0.25f);
            const std::vector<float> b = random_operand(gen, k * n, 0.1f);
            std::vector<float> base(static_cast<std::size_t>(m * n));
            for (float& x : base) x = gen.uniform(-0.5f, 0.5f);  // nonzero accumulation base
            // Whole zero rows of A over a -0.0 base: every strip then takes
            // the masked-select Skip path, and only a real skip keeps the
            // sign of zero (-0 + 0*b would round to +0).
            if (zero_rows)
              for (std::int64_t i = 1; i < m; i += 3) {
                std::fill_n(a.begin() + i * k, k, 0.0f);
                std::fill_n(base.begin() + i * n, n, -0.0f);
              }
            std::vector<float> want = base, got = base;
            reference_gemm(a.data(), b.data(), want.data(), m, k, n);
            finite_cache cache;
            gemm_accumulate(a.data(), b.data(), got.data(), m, k, n, cache);
            ASSERT_TRUE(bits_equal(want, got)) << tier.name << " m=" << m << " k=" << k
                                               << " n=" << n << " zero_rows=" << zero_rows;
          }
  });
}

TEST(BlockedGemm, RowSliceInvariance) {
  // Chunked invocation over arbitrary row splits must reproduce the whole-
  // matrix call bit for bit — the invariant parallel_for_range relies on.
  rng gen{43};
  const std::int64_t m = 37, k = 23, n = 41;
  const std::vector<float> a = random_operand(gen, m * k, 0.3f);
  const std::vector<float> b = random_operand(gen, k * n, 0.0f);
  std::vector<float> whole(static_cast<std::size_t>(m * n), 0.0f);
  {
    finite_cache cache;
    gemm_accumulate(a.data(), b.data(), whole.data(), m, k, n, cache);
  }
  for (const std::int64_t step : {1, 2, 3, 5, 8, 36}) {
    std::vector<float> sliced(static_cast<std::size_t>(m * n), 0.0f);
    finite_cache cache;
    for (std::int64_t lo = 0; lo < m; lo += step) {
      const std::int64_t len = std::min<std::int64_t>(step, m - lo);
      gemm_accumulate(a.data() + lo * k, b.data(), sliced.data() + lo * n, len, k, n, cache);
    }
    ASSERT_TRUE(bits_equal(whole, sliced)) << "step=" << step;
  }
}

TEST(BlockedGemm, TransposedBVariantBitEqualsMaterializedTranspose) {
  rng gen{47};
  for_each_tier([&](const kernel_table& tier) {
    // Columns straddle every tier's strip (8, 16 or 32) and a 256-column
    // panel; depths straddle the 256-deep k-block.
    for (std::int64_t m : {1, 3, 4, 5, 10, 17, 33})
      for (std::int64_t k : {1, 2, 9, 24, 257})
        for (std::int64_t n : {1, 2, 3, 4, 5, 13, 16, 17, 31, 32, 33, 65, 263}) {
          const std::vector<float> a = random_operand(gen, m * k, 0.3f);
          const std::vector<float> bt = random_operand(gen, n * k, 0.1f);  // [n, k]
          std::vector<float> b(static_cast<std::size_t>(k * n));           // [k, n]
          for (std::int64_t j = 0; j < n; ++j)
            for (std::int64_t kk = 0; kk < k; ++kk)
              b[static_cast<std::size_t>(kk * n + j)] = bt[static_cast<std::size_t>(j * k + kk)];
          std::vector<float> want(static_cast<std::size_t>(m * n), 0.0f), got = want;
          reference_gemm(a.data(), b.data(), want.data(), m, k, n);
          finite_cache cache;
          gemm_accumulate_bt(a.data(), bt.data(), got.data(), m, k, n, cache);
          ASSERT_TRUE(bits_equal(want, got))
              << tier.name << " m=" << m << " k=" << k << " n=" << n;
        }
  });
}

// Regression for the poisoned-update gate: a NaN/Inf B operand must surface
// through a zero A row — the zero-skip fast path is only legal when B is
// fully finite, and the gate is now decided once per call, not per element.
TEST(BlockedGemm, PoisonedBPropagatesThroughZeroARow) {
  for_each_tier([](const kernel_table&) {
    const std::int64_t m = 3, k = 4, n = 8;
    std::vector<float> a(static_cast<std::size_t>(m * k), 0.0f);
    for (std::int64_t j = 0; j < k; ++j) a[static_cast<std::size_t>(0 * k + j)] = 1.0f;
    // Row 1 and 2 of A are all zeros. B: one NaN, one Inf.
    std::vector<float> b(static_cast<std::size_t>(k * n), 0.5f);
    b[static_cast<std::size_t>(1 * n + 2)] = std::numeric_limits<float>::quiet_NaN();
    b[static_cast<std::size_t>(2 * n + 5)] = std::numeric_limits<float>::infinity();

    std::vector<float> out(static_cast<std::size_t>(m * n), 0.0f);
    finite_cache cache;
    gemm_accumulate(a.data(), b.data(), out.data(), m, k, n, cache);
    // The nonzero row sees NaN (NaN term) and Inf (Inf term); the all-zero
    // rows see NaN in both poisoned columns, because 0 * NaN and 0 * Inf are
    // NaN — the zero-skip fast path must be disabled for this operand.
    EXPECT_TRUE(std::isnan(out[2]));
    EXPECT_TRUE(std::isinf(out[5]));
    for (std::int64_t i = 1; i < m; ++i) {
      EXPECT_TRUE(std::isnan(out[static_cast<std::size_t>(i * n + 2)])) << "row " << i;
      EXPECT_TRUE(std::isnan(out[static_cast<std::size_t>(i * n + 5)])) << "row " << i;
    }

    // Transposed-B variant: same contract.
    std::vector<float> bt(static_cast<std::size_t>(n * k), 0.5f);
    bt[static_cast<std::size_t>(2 * k + 1)] = std::numeric_limits<float>::quiet_NaN();
    std::vector<float> out_bt(static_cast<std::size_t>(m * n), 0.0f);
    finite_cache cache_bt;
    gemm_accumulate_bt(a.data(), bt.data(), out_bt.data(), m, k, n, cache_bt);
    for (std::int64_t i = 0; i < m; ++i)
      EXPECT_TRUE(std::isnan(out_bt[static_cast<std::size_t>(i * n + 2)])) << "row " << i;

    // And the complement: with a fully finite B, zero A rows stay exactly at
    // the accumulation base.
    std::vector<float> b_fin(static_cast<std::size_t>(k * n), 0.5f);
    std::vector<float> out_fin(static_cast<std::size_t>(m * n), 0.0f);
    finite_cache cache_fin;
    gemm_accumulate(a.data(), b_fin.data(), out_fin.data(), m, k, n, cache_fin);
    for (std::int64_t j = 0; j < n; ++j) {
      EXPECT_EQ(out_fin[static_cast<std::size_t>(1 * n + j)], 0.0f);
      EXPECT_EQ(out_fin[static_cast<std::size_t>(2 * n + j)], 0.0f);
    }
  });
}

// ---- zero-skip gate predicates ----------------------------------------------
//
// The scans run branch-free over fixed blocks and exit early only between
// blocks, so a block edge or the ragged tail is where one could drop an
// element. Each value below is planted at every position of every length
// from 0 to several blocks plus a tail; the expectations come from plain
// per-element loops written here.

const float k_planted[] = {0.0f,
                           -0.0f,
                           std::numeric_limits<float>::quiet_NaN(),
                           std::numeric_limits<float>::infinity(),
                           -std::numeric_limits<float>::infinity(),
                           std::numeric_limits<float>::denorm_min()};

bool scalar_any_zero(const float* p, std::int64_t count) {
  for (std::int64_t i = 0; i < count; ++i)
    if (p[i] == 0.0f) return true;
  return false;
}

bool scalar_all_finite(const float* p, std::int64_t count) {
  for (std::int64_t i = 0; i < count; ++i)
    if (!std::isfinite(p[i])) return false;
  return true;
}

TEST(GatePredicates, BaselineScansMatchThePerElementLoop) {
  const std::int64_t max_len = 5 * ops::detail::k_scan_block + 7;
  for (std::int64_t len = 0; len <= max_len; ++len) {
    // One slot past the end holds a zero and a NaN in turn: the scan must
    // not read it.
    std::vector<float> buf(static_cast<std::size_t>(len + 1), 0.75f);
    for (const float past : {0.0f, std::numeric_limits<float>::quiet_NaN()}) {
      buf[static_cast<std::size_t>(len)] = past;
      EXPECT_FALSE(ops::detail::any_zero_in(buf.data(), len)) << "len=" << len;
      EXPECT_TRUE(ops::detail::all_finite(buf.data(), len)) << "len=" << len;
    }
    for (std::int64_t pos = 0; pos < len; ++pos)
      for (const float v : k_planted) {
        buf[static_cast<std::size_t>(pos)] = v;
        ASSERT_EQ(ops::detail::any_zero_in(buf.data(), len), scalar_any_zero(buf.data(), len))
            << "len=" << len << " pos=" << pos << " value=" << v;
        ASSERT_EQ(ops::detail::all_finite(buf.data(), len), scalar_all_finite(buf.data(), len))
            << "len=" << len << " pos=" << pos << " value=" << v;
        buf[static_cast<std::size_t>(pos)] = 0.75f;
      }
  }
}

// The tier copy of the zero scan decides, per 4-row tile and k-block, whether
// the tile runs the skipping body. It is observable through the tier's GEMM
// with the skip gate forced on and B row `pos` all NaN: the planted row's
// NaN term is skipped (finite output) exactly when the scan saw its zero,
// and a missed zero leaves 0 * NaN = NaN. Depths cross the 256-deep k-block,
// whose second block starts its own scan.
TEST(GatePredicates, TierTileScanFindsEveryPlantedZero) {
  for_each_tier([](const kernel_table& tier) {
    const std::int64_t m = k_gemm_mr, n = tier.gemm_nr;
    std::vector<std::int64_t> depths;
    for (std::int64_t k = 1; k <= 5 * ops::detail::k_scan_block + 7; ++k) depths.push_back(k);
    for (const std::int64_t k : {std::int64_t{255}, std::int64_t{256}, std::int64_t{257},
                                 256 + 2 * ops::detail::k_scan_block + 5})
      depths.push_back(k);
    std::vector<float> panel(static_cast<std::size_t>(ops::detail::k_gemm_kc * n));
    for (const std::int64_t k : depths)
      for (std::int64_t pos = 0; pos < k; ++pos)
        for (const float v : k_planted) {
          const std::int64_t row = pos % m;
          std::vector<float> a(static_cast<std::size_t>(m * k), 1.0f);
          a[static_cast<std::size_t>(row * k + pos)] = v;
          std::vector<float> b(static_cast<std::size_t>(k * n), 0.5f);
          std::vector<float> bt(static_cast<std::size_t>(n * k), 0.5f);
          for (std::int64_t j = 0; j < n; ++j) {
            b[static_cast<std::size_t>(pos * n + j)] = std::numeric_limits<float>::quiet_NaN();
            bt[static_cast<std::size_t>(j * k + pos)] = std::numeric_limits<float>::quiet_NaN();
          }
          const bool skipped = scalar_any_zero(&v, 1);
          std::vector<float> out(static_cast<std::size_t>(m * n), 0.0f), out_bt = out;
          tier.gemm(a.data(), b.data(), out.data(), m, k, n, /*skip=*/true, panel.data());
          tier.gemm_bt(a.data(), bt.data(), out_bt.data(), m, k, n, /*skip=*/true, panel.data());
          for (std::int64_t j = 0; j < n; ++j) {
            ASSERT_EQ(std::isnan(out[static_cast<std::size_t>(row * n + j)]), !skipped)
                << tier.name << " k=" << k << " pos=" << pos << " value=" << v;
            ASSERT_EQ(std::isnan(out_bt[static_cast<std::size_t>(row * n + j)]), !skipped)
                << tier.name << " bt k=" << k << " pos=" << pos << " value=" << v;
          }
        }
  });
}

// Whole zero rows of A make the gate consult B; B's only NaN sits in the
// scalar tail of the finiteness scan (the last element, count not a multiple
// of the block). The scan must see it, turn the skip off, and let the NaN
// surface through every zero row.
TEST(GatePredicates, NanInTheTailOfTheBScanSurfacesThroughZeroRows) {
  for_each_tier([](const kernel_table& tier) {
    // k * n = 297: eighteen blocks and a 9-float tail; n is wide enough for
    // every tier's strip.
    const std::int64_t m = 6, k = 9, n = 33;
    ASSERT_NE((k * n) % ops::detail::k_scan_block, 0);
    std::vector<float> a(static_cast<std::size_t>(m * k), 1.0f);
    for (const std::int64_t zero_row : {1, 4})
      std::fill_n(a.begin() + zero_row * k, k, 0.0f);
    std::vector<float> b(static_cast<std::size_t>(k * n), 0.5f);
    b.back() = std::numeric_limits<float>::quiet_NaN();  // B[k-1][n-1]
    std::vector<float> out(static_cast<std::size_t>(m * n), 0.0f);
    finite_cache cache;
    gemm_accumulate(a.data(), b.data(), out.data(), m, k, n, cache);
    std::vector<float> bt(static_cast<std::size_t>(n * k), 0.5f);
    bt.back() = std::numeric_limits<float>::quiet_NaN();  // B[k-1][n-1] as [n, k]
    std::vector<float> out_bt(static_cast<std::size_t>(m * n), 0.0f);
    finite_cache cache_bt;
    gemm_accumulate_bt(a.data(), bt.data(), out_bt.data(), m, k, n, cache_bt);
    for (std::int64_t i = 0; i < m; ++i) {
      EXPECT_TRUE(std::isnan(out[static_cast<std::size_t>(i * n + n - 1)]))
          << tier.name << " row " << i;
      EXPECT_TRUE(std::isnan(out_bt[static_cast<std::size_t>(i * n + n - 1)]))
          << tier.name << " bt row " << i;
      for (std::int64_t j = 0; j + 1 < n; ++j) {
        EXPECT_FALSE(std::isnan(out[static_cast<std::size_t>(i * n + j)])) << tier.name;
        EXPECT_FALSE(std::isnan(out_bt[static_cast<std::size_t>(i * n + j)])) << tier.name;
      }
    }
  });
}

TEST(BlockedGemm, MatmulBitIdenticalAcrossThreadWidths) {
  rng gen{53};
  const std::int64_t m = 130, k = 64, n = 50;  // m deliberately not a tile multiple
  tensor a = tensor::randn(gen, {m, k});
  tensor b = tensor::randn(gen, {k, n});
  tensor pooled = ops::matmul(a, b);
  tensor serial = [&] {
    serial_guard guard;
    return ops::matmul(a, b);
  }();
  tensor two_wide = [&] {
    concurrency_guard guard{2};
    return ops::matmul(a, b);
  }();
  ASSERT_EQ(0, std::memcmp(pooled.data().data(), serial.data().data(),
                           static_cast<std::size_t>(pooled.numel()) * sizeof(float)));
  ASSERT_EQ(0, std::memcmp(pooled.data().data(), two_wide.data().data(),
                           static_cast<std::size_t>(pooled.numel()) * sizeof(float)));
}

// linear runs its GEMMs on the operands' storage at any leading rank (no
// reshape copies, transposed-B backward). Forward and every gradient must
// equal the composed tensor-op path on the flattened [rows, In] matrix bit
// for bit, with and without bias, at pool widths 1 and 8 and on every kernel
// tier — the composed path always runs on sse2.
TEST(Linear, BitEqualsComposedPath) {
  rng gen{61};
  struct layer {
    shape_t x;
    std::int64_t d;
  };
  // Rank 3: per-token projections at batch 1 and 32 (d straddles every
  // tier's strip width). Rank 2: a 32 -> 10 head at batch 1 and 32, and one
  // k >= 257 layer.
  const std::vector<layer> layers{
      {{1, 17, 48}, 40}, {{32, 17, 48}, 40}, {{1, 32}, 10}, {{32, 32}, 10}, {{33, 257}, 263}};
  const auto bits_equal_tensor = [](const tensor& x, const tensor& y) {
    return x.numel() == y.numel() &&
           std::memcmp(x.data().data(), y.data().data(),
                       static_cast<std::size_t>(x.numel()) * sizeof(float)) == 0;
  };
  for (const layer& l : layers) {
    const std::int64_t p = l.x.back(), d = l.d, rows = numel_of(l.x) / p;
    shape_t y_shape = l.x;
    y_shape.back() = d;
    const tensor w = tensor::randn(gen, {p, d});
    const tensor bias = tensor::randn(gen, {d});
    tensor x = tensor::randn(gen, l.x);
    for (float& v : x.data())
      if (gen.bernoulli(0.1f)) v = 0.0f;  // post-activation zeros: the Skip path
    const tensor g = tensor::randn(gen, y_shape);

    // Composed path on the sse2 tier: flatten to rows, ops::matmul, then
    // the bias.
    const tensor x2 = x.reshape({rows, p});
    const tensor g2 = g.reshape({rows, d});
    tensor want_y, want_gx, want_gw;
    {
      const ops::detail::tier_override sse2{ops::detail::isa::sse2};
      want_y = ops::matmul(x2, w);
      want_gx = ops::matmul(g2, ops::transpose2d(w));
      want_gw = ops::matmul(ops::transpose2d(x2), g2);
    }
    tensor want_y_bias = want_y;
    for (std::int64_t r = 0; r < rows; ++r)
      for (std::int64_t c = 0; c < d; ++c) want_y_bias.at(r, c) += bias[c];
    tensor want_gb{shape_t{d}};
    for (std::int64_t r = 0; r < rows; ++r)
      for (std::int64_t c = 0; c < d; ++c) want_gb[c] += g2.at(r, c);

    const std::string at = to_string(l.x) + " x [" + std::to_string(p) + ", " +
                           std::to_string(d) + "] ";
    for_each_tier([&](const kernel_table& tier) {
      const auto check = [&](bool with_bias, const std::string& width) {
        const std::string where = at + (with_bias ? "bias " : "no bias ") + width + " " +
                                  tier.name;
        const ad::op_ptr op = ad::make_linear(with_bias);
        std::vector<const tensor*> in{&x, &w};
        if (with_bias) in.push_back(&bias);
        const tensor y = op->forward(in);
        ASSERT_EQ(y.shape(), y_shape);
        EXPECT_TRUE(bits_equal_tensor(with_bias ? want_y_bias : want_y, y)) << "forward " << where;
        const std::vector<tensor> grads = op->backward(g, in, y);
        ASSERT_EQ(grads.size(), with_bias ? 3u : 2u);
        EXPECT_EQ(grads[0].shape(), x.shape());
        EXPECT_TRUE(bits_equal_tensor(want_gx, grads[0])) << "dX " << where;
        EXPECT_TRUE(bits_equal_tensor(want_gw, grads[1])) << "dW " << where;
        if (with_bias) {
          EXPECT_TRUE(bits_equal_tensor(want_gb, grads[2])) << "db " << where;
        }
      };
      for (const bool with_bias : {true, false}) {
        {
          serial_guard guard;
          check(with_bias, "PELTA_THREADS=1");
        }
        check(with_bias, "PELTA_THREADS=" + std::to_string(parallel_thread_count()));
      }
    });
  }
}

// A whole ViT-B/16-sim batch-32 forward — patch embedding, attention
// bmm/softmax, GELU MLPs, classifier — gives the sse2 tier's logits bit for
// bit on every tier.
TEST(KernelTiers, VitB16Batch32LogitsEqualAtEveryTier) {
  models::task_spec task;
  task.image_size = 16;
  task.channels = 3;
  task.classes = 10;
  task.seed = 5;
  const auto model = models::make_vit_b16_sim(task);
  rng gen{19};
  const tensor images = tensor::randn(gen, {32, 3, 16, 16});
  tensor sse2_logits;
  for_each_tier([&](const kernel_table& tier) {
    const tensor logits = models::predict_logits(*model, images);
    ASSERT_EQ(logits.shape(), (shape_t{32, 10}));
    if (tier.tier == ops::detail::isa::sse2) sse2_logits = logits;
    EXPECT_EQ(0, std::memcmp(sse2_logits.data().data(), logits.data().data(),
                             static_cast<std::size_t>(logits.numel()) * sizeof(float)))
        << tier.name;
  });
}

// The dispatcher refuses a tier above the host's, and names each tier it
// can run.
TEST(KernelTiers, LookupIsCappedAtTheHostTier) {
  const int host = static_cast<int>(ops::detail::host_isa());
  const char* names[] = {"sse2", "avx2", "avx512"};
  for (int i = 0; i <= host; ++i)
    EXPECT_STREQ(ops::detail::kernels_for(static_cast<ops::detail::isa>(i)).name, names[i]);
  for (int i = host + 1; i <= static_cast<int>(ops::detail::isa::avx512); ++i)
    EXPECT_THROW(ops::detail::kernels_for(static_cast<ops::detail::isa>(i)), error);
  EXPECT_EQ(ops::detail::active_kernels().tier, ops::detail::host_isa());
}

// Satellite: elementwise zip/unary now dispatch through the pool above a
// grain threshold. Values must be bit-identical at every thread width.
TEST(Elementwise, BitIdenticalAcrossThreadWidths) {
  rng gen{59};
  const std::int64_t count = (1 << 17) + 7;  // above the grain, odd tail
  tensor a = tensor::randn(gen, {count});
  tensor b = ops::add_scalar(ops::abs(tensor::randn(gen, {count})), 0.5f);

  const auto run_all = [&] {
    std::vector<tensor> r;
    r.push_back(ops::add(a, b));
    r.push_back(ops::sub(a, b));
    r.push_back(ops::mul(a, b));
    r.push_back(ops::div(a, b));
    r.push_back(ops::relu(a));
    r.push_back(ops::exp(a));
    r.push_back(ops::tanh(a));
    r.push_back(ops::sign(a));
    r.push_back(ops::add_scalar(a, 0.25f));
    r.push_back(ops::mul_scalar(a, -1.5f));
    return r;
  };
  const std::vector<tensor> pooled = run_all();
  serial_guard guard;
  const std::vector<tensor> serial = run_all();
  ASSERT_EQ(pooled.size(), serial.size());
  for (std::size_t i = 0; i < pooled.size(); ++i) {
    ASSERT_TRUE(pooled[i].same_shape(serial[i]));
    ASSERT_EQ(0, std::memcmp(pooled[i].data().data(), serial[i].data().data(),
                             static_cast<std::size_t>(pooled[i].numel()) * sizeof(float)))
        << "op index " << i;
  }
}

// Direct-convolution reference accumulating in the same (ci, ky, kx) order
// as the im2col GEMM, through detail::fmadd like every reference kernel
// (the build compiles with -ffp-contract=off, so a raw `acc += w * v` stays
// unfused while the PELTA_NATIVE kernels fuse): values must match exactly
// (float ==, padding contributes exact zero terms).
tensor reference_conv2d(const tensor& input, const tensor& weight, const tensor& bias,
                        std::int64_t stride, std::int64_t pad) {
  const std::int64_t b = input.size(0), c = input.size(1), h = input.size(2), w = input.size(3);
  const std::int64_t oc = weight.size(0), kh = weight.size(2), kw = weight.size(3);
  const std::int64_t oh = (h + 2 * pad - kh) / stride + 1;
  const std::int64_t ow = (w + 2 * pad - kw) / stride + 1;
  tensor out{shape_t{b, oc, oh, ow}};
  for (std::int64_t n = 0; n < b; ++n)
    for (std::int64_t o = 0; o < oc; ++o)
      for (std::int64_t y = 0; y < oh; ++y)
        for (std::int64_t x = 0; x < ow; ++x) {
          float acc = bias.numel() == oc ? bias[o] : 0.0f;
          for (std::int64_t ci = 0; ci < c; ++ci)
            for (std::int64_t ky = 0; ky < kh; ++ky)
              for (std::int64_t kx = 0; kx < kw; ++kx) {
                const std::int64_t iy = y * stride - pad + ky;
                const std::int64_t ix = x * stride - pad + kx;
                const float v =
                    (iy < 0 || iy >= h || ix < 0 || ix >= w) ? 0.0f : input.at(n, ci, iy, ix);
                acc = ops::detail::fmadd(weight.at(o, ci, ky, kx), v, acc);
              }
          out.at(n, o, y, x) = acc;
        }
  return out;
}

// Covers the fringe-only zero-fill in im2col: strides and paddings that
// clip every edge (including pad >= kernel, whose first/last taps are
// entirely out of bounds), and the stride-1 `ow == w` plane copy: a
// kernel taller than wide (oh != h), a one-row kernel whose pad covers
// whole taps (pad >= kh), and NaN pixels on both edge columns, which the
// shifted copy wraps onto the other edge's masked columns (a NaN output
// must come only from a tap that really reads the NaN).
TEST(Im2col, FringeFillMatchesDirectConvolution) {
  rng gen{61};
  struct case_t {
    std::int64_t c, h, w, oc, kh, kw, stride, pad;
    bool nan_edges = false;
  };
  const case_t cases[] = {
      {1, 5, 5, 2, 3, 3, 1, 0}, {2, 6, 6, 3, 3, 3, 1, 1}, {2, 7, 5, 3, 3, 3, 2, 1},
      {1, 8, 8, 2, 5, 5, 1, 2}, {2, 9, 7, 2, 3, 3, 3, 2}, {1, 6, 6, 2, 3, 3, 1, 3},
      {2, 5, 5, 2, 1, 1, 1, 0}, {1, 7, 7, 2, 3, 1, 2, 1}, {1, 4, 4, 1, 4, 4, 4, 2},
      {2, 7, 6, 2, 5, 3, 1, 1}, {1, 5, 6, 2, 1, 3, 1, 1}, {2, 1, 5, 2, 1, 5, 1, 2},
      {2, 6, 6, 3, 3, 3, 1, 1, true}, {1, 5, 7, 2, 5, 5, 1, 2, true},
  };
  for (const case_t& cs : cases) {
    tensor input = tensor::randn(gen, {2, cs.c, cs.h, cs.w});
    if (cs.nan_edges) {
      input.at(0, 0, cs.h / 2, cs.w - 1) = std::numeric_limits<float>::quiet_NaN();
      input.at(1, cs.c - 1, cs.h / 2, 0) = std::numeric_limits<float>::quiet_NaN();
    }
    tensor weight = tensor::randn(gen, {cs.oc, cs.c, cs.kh, cs.kw});
    tensor bias = tensor::rand_uniform(gen, {cs.oc}, 0.1f, 0.9f);
    tensor got = ops::conv2d(input, weight, bias, cs.stride, cs.pad);
    tensor want = reference_conv2d(input, weight, bias, cs.stride, cs.pad);
    ASSERT_TRUE(got.same_shape(want));
    auto pg = got.data();
    auto pw = want.data();
    for (std::size_t i = 0; i < pg.size(); ++i)
      ASSERT_TRUE(pg[i] == pw[i] || (std::isnan(pg[i]) && std::isnan(pw[i])))
          << "stride=" << cs.stride << " pad=" << cs.pad << " k=" << cs.kh << "x" << cs.kw
          << " i=" << i << ": " << pg[i] << " vs " << pw[i];
  }
}

// Satellite: steady state performs zero allocations — the second identical
// conv2d call sequence must not grow any arena. Forced serial so every
// checkout lands on this thread's arena, where the accessors can see it.
// Three geometries: 3x3 stride 1 and stride 2 (pad 1), and the 1x1
// stride-2 pad-0 projection.
TEST(ScratchArena, SecondConvCallAllocatesNothing) {
  serial_guard guard;
  rng gen{67};
  tensor input = tensor::randn(gen, {2, 3, 12, 12});
  tensor weight = tensor::randn(gen, {8, 3, 3, 3});
  tensor proj = tensor::randn(gen, {8, 3, 1, 1});
  tensor bias = tensor::rand_uniform(gen, {8}, -0.1f, 0.1f);

  const auto round_trip = [&](const tensor& w, std::int64_t stride, std::int64_t pad) {
    tensor out = ops::conv2d(input, w, bias, stride, pad);
    tensor grad_out = tensor::ones(out.shape());
    ops::conv2d_backward_input(grad_out, w, stride, pad, input.shape());
    ops::conv2d_backward_weight(grad_out, input, stride, pad, w.shape());
  };
  const auto run_once = [&] {
    round_trip(weight, 1, 1);
    round_trip(weight, 2, 1);
    round_trip(proj, 2, 0);
  };

  run_once();
  scratch_arena& arena = scratch_arena::local();
  EXPECT_EQ(arena.outstanding(), 0u);
  EXPECT_GT(arena.high_water_floats(), 0u);
  const std::size_t allocs_after_warmup = arena.block_allocations();
  run_once();
  run_once();
  EXPECT_EQ(arena.block_allocations(), allocs_after_warmup)
      << "steady-state conv2d calls must reuse the arena high-water block";
  EXPECT_EQ(arena.outstanding(), 0u);
  EXPECT_GE(arena.capacity_floats(), arena.high_water_floats());
}

TEST(ScratchArena, LifoGrowthPreservesLiveClaims) {
  scratch_arena arena;  // private instance: counters start at zero
  {
    scratch_buffer small = arena.take(64);
    for (std::size_t i = 0; i < small.size(); ++i) small.data()[i] = static_cast<float>(i);
    const float* small_ptr = small.data();
    // Force growth while `small` is live: the new claim must come from a
    // fresh block and `small` must stay in place, contents intact.
    scratch_buffer big = arena.take(1 << 20);
    big.data()[0] = 1.0f;  // the claim is real, writable memory
    EXPECT_EQ(small.data(), small_ptr);
    for (std::size_t i = 0; i < small.size(); ++i)
      EXPECT_EQ(small.data()[i], static_cast<float>(i));
    EXPECT_EQ(arena.outstanding(), 2u);
    EXPECT_GE(arena.block_allocations(), 2u);
  }
  // All claims back: the arena consolidates to one high-water block and
  // an identical take pattern no longer allocates.
  EXPECT_EQ(arena.outstanding(), 0u);
  const std::size_t allocs = arena.block_allocations();
  {
    scratch_buffer small = arena.take(64);
    scratch_buffer big = arena.take(1 << 20);
    EXPECT_EQ(arena.block_allocations(), allocs);
  }
  EXPECT_EQ(arena.block_allocations(), allocs);
}

TEST(ScratchArena, EmptyTakeAndMoveSemantics) {
  scratch_arena arena;
  scratch_buffer empty = arena.take(0);
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(arena.outstanding(), 0u);

  scratch_buffer a = arena.take(10);
  scratch_buffer moved = std::move(a);
  EXPECT_EQ(moved.size(), 10u);
  EXPECT_EQ(arena.outstanding(), 1u);  // the claim followed the move
}

}  // namespace
}  // namespace pelta
