// Kernel-level GEMM baseline: blocked micro-kernel vs the pre-PR naive
// i-k-j loop, swept over GEMM shapes the repo's real models actually
// produce (conv-as-GEMM layers of the resnet zoo, ViT/MLP classifier
// matmuls). Emits machine-readable BENCH_kernels.json so subsequent PRs can
// track the kernel trajectory per commit.
//
// Exit code: non-zero if the blocked kernel is below the single-thread
// speedup threshold on the two largest shapes (default 3x; override or
// disable via PELTA_KERNELS_MIN_SPEEDUP), if the int8 quantized path is
// below its own threshold on the same two shapes (default 2x vs the blocked
// fp32 kernel on the avx512 kernel tier, 1.5x on avx2, picked from the tier
// the run dispatched to; PELTA_QKERNELS_MIN_SPEEDUP), or if a
// steady-state conv2d call still allocates, or if any kernel output
// mismatches its reference bitwise. Everything runs single-thread: this is
// the serial inner-kernel baseline the thread-pool scaling bench multiplies.
// Report-only rows: ns per element of fn::tanh / fn::exp (tensor/mathfn.h)
// against libm's std::tanh / std::exp over one batch-32 ViT-B/16-sim GELU's
// worth of elements; the zero-skip path on a ReLU-sparse A (about half
// zeros, finite B) for the resnet conv-as-GEMM shapes; and the zero-skip
// gate's cost on the ViT per-token linear shapes (gemm_accumulate against the
// tier kernel it dispatches to, called directly); and conv_train, the three
// conv passes of a training step (forward, backward_input,
// backward_weight) in microseconds per batch-16 call at every
// ResNet-56-sim conv shape, as the minimum over repeats of thread CPU time
// (wall-clock microbenchmarks drift with host load; CPU time of the one
// thread doing the work does not count the time it is descheduled).
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.h"
#include "tensor/conv.h"
#include "tensor/kernels.h"
#include "tensor/mathfn.h"
#include "tensor/parallel.h"
#include "tensor/quantized_tensor.h"
#include "tensor/rng.h"
#include "tensor/scratch.h"
#include "tensor/tensor.h"
#include "tests/reference_kernels.h"

namespace {

using pelta::rng;
using pelta::bench::seconds_since;
using pelta::ops::detail::finite_cache;
using pelta::ops::detail::gemm_accumulate;
using pelta::ops::detail::gemm_accumulate_bt;
// THE frozen pre-PR baseline, shared with tests/test_kernels.cpp so the
// test suite and this gate measure against one identical kernel.
using pelta::ops::reference::reference_gemm;
using pelta::ops::reference::reference_gemm_bt;

struct shape {
  const char* name;  // which model layer this GEMM comes from
  std::int64_t m, k, n;
  std::int64_t flops() const { return 2 * m * k * n; }
};

// Conv layers map to GEMM as [OC, C*KH*KW] x [C*KH*KW, OH*OW]; matmuls as
// [batch, features] x [features, out].
const shape k_shapes[] = {
    {"resnet.stem 3->16 @32x32", 16, 27, 1024},
    {"resnet.block 16->16 @32x32", 16, 144, 1024},
    {"resnet.block 32->32 @16x16", 32, 288, 256},
    {"resnet.block 64->64 @8x8", 64, 576, 64},
    {"mlp.fc 256->128 batch 64", 64, 256, 128},
    {"vit.head dim64 batch 50", 50, 64, 10},
    {"bit.block 192->192 @16x16", 192, 1728, 256},
    {"bit.block 256->256 @16x16", 256, 2304, 256},
    // ViT-B/16-sim's own GEMMs (dim 32, 4 heads, 17 tokens). Report-only:
    // far below the two largest shapes, so they never reach the gates. The
    // vit.token_linear rows are the per-token linear projection; their keys
    // stay fixed so the BENCH_kernels.json trajectory still diffs.
    {"vit.token_linear batch 32", 544, 32, 32},
    {"vit.token_linear batch 1", 17, 32, 32},
    {"vit.fc1 batch 32", 544, 32, 64},
    {"vit.attn scores bmm per head", 17, 8, 17},
    {"vit.attn values bmm per head", 17, 17, 8},
};

// Reference and candidate are timed in interleaved rounds (A/B/A/B, best
// of each) so host-load drift on a shared vCPU hits both sides instead of
// skewing the ratio.
template <class FnA, class FnB>
std::pair<double, double> time_ab(int rounds, std::int64_t reps, const FnA& fa, const FnB& fb) {
  double best_a = 1e100, best_b = 1e100;
  for (int r = 0; r < rounds; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    for (std::int64_t i = 0; i < reps; ++i) fa();
    best_a = std::min(best_a, seconds_since(t0) / static_cast<double>(reps));
    t0 = std::chrono::steady_clock::now();
    for (std::int64_t i = 0; i < reps; ++i) fb();
    best_b = std::min(best_b, seconds_since(t0) / static_cast<double>(reps));
  }
  return {best_a, best_b};
}

std::vector<float> random_vec(rng& gen, std::int64_t count, float zero_fraction) {
  std::vector<float> v(static_cast<std::size_t>(count));
  for (float& x : v) x = gen.bernoulli(zero_fraction) ? 0.0f : gen.uniform(-1.0f, 1.0f);
  return v;
}

struct result {
  shape s;
  double ref_gflops = 0, blocked_gflops = 0, speedup = 0;
  double bt_ref_gflops = 0, bt_gflops = 0, bt_speedup = 0;
};

// Default speedup gate: 3x on the fused build (PELTA_NATIVE — the CI leg
// that first ran this bench). The portable build defaults to report-only:
// on its sse2 tier the naive kernel's 4-wide mul+add saxpy already runs
// near that ISA's peak, so there is no such headroom to gate.
double env_threshold() {
  if (const char* v = std::getenv("PELTA_KERNELS_MIN_SPEEDUP")) return std::atof(v);
#if defined(PELTA_FUSED_MADD)
  return 3.0;
#else
  return 0.0;
#endif
}

struct mresult {
  const char* name;
  double fn_ns = 0, libm_ns = 0, speedup = 0;
};

// ReLU-sparse A: the zero fraction of a post-activation operand.
constexpr float k_relu_zero_fraction = 0.5f;

struct gate_result {
  shape s;
  double gated_us = 0, kernel_us = 0, overhead = 0;
};

// Elements in one batch-32 ViT-B/16-sim GELU: 32 images x 17 tokens x 64
// hidden units x 3 blocks.
constexpr std::int64_t k_gelu_elements = 32 * 17 * 64 * 3;

struct qresult {
  shape s;
  double fp32_gflops = 0, int8_gflops = 0, speedup = 0;
};

// One ResNet-56-sim conv (16 px input, stage widths 8/16/32): a 3x3 pad-1
// conv at stride 1 or 2, or a 1x1 pad-0 stride-2 projection. The first row
// is the 3x3 box blur of the input filter, which the ViTs apply too.
struct conv_shape {
  const char* name;
  std::int64_t c, hw, oc, k, stride, pad;
};
const conv_shape k_resnet56_convs[] = {
    {"box blur 3->3 @16", 3, 16, 3, 3, 1, 1},
    {"stem 3->8 @16", 3, 16, 8, 3, 1, 1},
    {"stage1 8->8 @16", 8, 16, 8, 3, 1, 1},
    {"stage2 conv1 8->16 @16 s2", 8, 16, 16, 3, 2, 1},
    {"stage2 proj 8->16 @16 1x1 s2", 8, 16, 16, 1, 2, 0},
    {"stage2 16->16 @8", 16, 8, 16, 3, 1, 1},
    {"stage3 conv1 16->32 @8 s2", 16, 8, 32, 3, 2, 1},
    {"stage3 proj 16->32 @8 1x1 s2", 16, 8, 32, 1, 2, 0},
    {"stage3 32->32 @4", 32, 4, 32, 3, 1, 1},
};
// Images per conv_train call: the larger of fl_round's two SGD steps.
constexpr std::int64_t k_conv_batch = 16;

struct conv_result {
  const conv_shape* s;
  double forward_us = 0, backward_input_us = 0, backward_weight_us = 0;
};

// Microseconds of this thread's CPU time per call of fn, the minimum over
// `rounds` windows of `reps` calls.
template <class Fn>
double min_thread_cpu_us(int rounds, int reps, const Fn& fn) {
  const auto now = [] {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e6 + static_cast<double>(ts.tv_nsec) * 1e-3;
  };
  double best = 1e300;
  for (int r = 0; r < rounds; ++r) {
    const double t0 = now();
    for (int i = 0; i < reps; ++i) fn();
    best = std::min(best, (now() - t0) / reps);
  }
  return best;
}

// Int8 gate, from the kernel tier this run dispatched to (any build): 2x
// over the blocked fp32 kernel on the avx512 tier, whose vpdpbusd is one
// VNNI instruction per k-group; 1.5x on the avx2 tier, whose
// vpmaddubsw+vpmaddwd form spends three ALU ops where VNNI spends one and
// measures ~1.9x on the largest shapes; report-only on the sse2 tier, whose
// plain int32 multiplies have no such headroom.
double env_int8_threshold(pelta::ops::detail::isa tier) {
  if (const char* v = std::getenv("PELTA_QKERNELS_MIN_SPEEDUP")) return std::atof(v);
  switch (tier) {
    case pelta::ops::detail::isa::avx512: return 2.0;
    case pelta::ops::detail::isa::avx2: return 1.5;
    default: return 0.0;
  }
}

}  // namespace

int main() {
  const pelta::ops::detail::kernel_table& tier = pelta::ops::detail::active_kernels();
  std::printf("[bench_kernels] blocked GEMM micro-kernel vs pre-PR naive kernel "
              "(single thread, kernel tier %s)\n\n",
              tier.name);
  rng gen{2023};
  bool bits_ok = true;
  std::vector<result> results;

  for (const shape& s : k_shapes) {
    // A is dense: in the swept layers it is the weight matrix (conv-as-GEMM)
    // or a pre-activation batch. The zero-skip path is covered bit-exactly
    // by test_kernels; sparsity throughput is not part of this trajectory.
    const std::vector<float> a = random_vec(gen, s.m * s.k, 0.0f);
    const std::vector<float> b = random_vec(gen, s.k * s.n, 0.0f);
    const std::vector<float> bt = random_vec(gen, s.n * s.k, 0.0f);
    std::vector<float> out_ref(static_cast<std::size_t>(s.m * s.n), 0.0f);
    std::vector<float> out_new = out_ref, out_bt_ref = out_ref, out_bt_new = out_ref;

    // Correctness first: one pass of each, compared bitwise.
    reference_gemm(a.data(), b.data(), out_ref.data(), s.m, s.k, s.n);
    {
      finite_cache cache;
      gemm_accumulate(a.data(), b.data(), out_new.data(), s.m, s.k, s.n, cache);
    }
    std::vector<float> bt_scratch;
    reference_gemm_bt(a.data(), bt.data(), out_bt_ref.data(), s.m, s.k, s.n, bt_scratch);
    {
      finite_cache cache;
      gemm_accumulate_bt(a.data(), bt.data(), out_bt_new.data(), s.m, s.k, s.n, cache);
    }
    const std::size_t bytes = out_ref.size() * sizeof(float);
    if (std::memcmp(out_ref.data(), out_new.data(), bytes) != 0 ||
        std::memcmp(out_bt_ref.data(), out_bt_new.data(), bytes) != 0) {
      std::printf("!! %s: blocked kernel output differs from reference bitwise\n", s.name);
      bits_ok = false;
    }

    // Repetitions sized so even the slow reference gets a stable window.
    const std::int64_t reps =
        std::max<std::int64_t>(2, (1 << 25) / std::max<std::int64_t>(s.flops(), 1));
    result r;
    r.s = s;
    const double gf = static_cast<double>(s.flops()) * 1e-9;
    const auto [ref_s, new_s] = time_ab(
        7, reps,
        [&] { reference_gemm(a.data(), b.data(), out_ref.data(), s.m, s.k, s.n); },
        [&] {
          finite_cache cache;
          gemm_accumulate(a.data(), b.data(), out_new.data(), s.m, s.k, s.n, cache);
        });
    const auto [bt_ref_s, bt_new_s] = time_ab(
        7, reps,
        [&] { reference_gemm_bt(a.data(), bt.data(), out_bt_ref.data(), s.m, s.k, s.n, bt_scratch); },
        [&] {
          finite_cache cache;
          gemm_accumulate_bt(a.data(), bt.data(), out_bt_new.data(), s.m, s.k, s.n, cache);
        });
    r.ref_gflops = gf / ref_s;
    r.blocked_gflops = gf / new_s;
    r.bt_ref_gflops = gf / bt_ref_s;
    r.bt_gflops = gf / bt_new_s;
    r.speedup = r.blocked_gflops / r.ref_gflops;
    r.bt_speedup = r.bt_gflops / r.bt_ref_gflops;
    results.push_back(r);
    std::printf("%-32s m=%-4lld k=%-5lld n=%-5lld  ref %6.2f -> blocked %7.2f GF/s (%5.2fx)   "
                "bt %6.2f -> %7.2f GF/s (%5.2fx)\n",
                s.name, static_cast<long long>(s.m), static_cast<long long>(s.k),
                static_cast<long long>(s.n), r.ref_gflops, r.blocked_gflops, r.speedup,
                r.bt_ref_gflops, r.bt_gflops, r.bt_speedup);
  }

  // ---- zero-skip path on a ReLU-sparse A (report-only) -----------------------
  // The same timing pairs as above on the resnet conv-as-GEMM shapes, with
  // about half of A zero: the rows a post-ReLU activation or gradient feeds
  // the GEMM. B stays finite, so the gate opens and the skipping body runs;
  // the reference skips the same terms one by one.
  std::printf("\nReLU-sparse A (%.0f%% zeros, finite B), zero-skip path:\n",
              100.0 * k_relu_zero_fraction);
  std::vector<result> sparse_results;
  rng sgen{2029};
  for (const shape& s : k_shapes) {
    if (std::strncmp(s.name, "resnet.", 7) != 0) continue;
    const std::vector<float> a = random_vec(sgen, s.m * s.k, k_relu_zero_fraction);
    const std::vector<float> b = random_vec(sgen, s.k * s.n, 0.0f);
    const std::vector<float> bt = random_vec(sgen, s.n * s.k, 0.0f);
    std::vector<float> out_ref(static_cast<std::size_t>(s.m * s.n), 0.0f);
    std::vector<float> out_new = out_ref, out_bt_ref = out_ref, out_bt_new = out_ref;
    std::vector<float> bt_scratch;
    reference_gemm(a.data(), b.data(), out_ref.data(), s.m, s.k, s.n);
    reference_gemm_bt(a.data(), bt.data(), out_bt_ref.data(), s.m, s.k, s.n, bt_scratch);
    {
      finite_cache cache, cache_bt;
      gemm_accumulate(a.data(), b.data(), out_new.data(), s.m, s.k, s.n, cache);
      gemm_accumulate_bt(a.data(), bt.data(), out_bt_new.data(), s.m, s.k, s.n, cache_bt);
    }
    const std::size_t bytes = out_ref.size() * sizeof(float);
    if (std::memcmp(out_ref.data(), out_new.data(), bytes) != 0 ||
        std::memcmp(out_bt_ref.data(), out_bt_new.data(), bytes) != 0) {
      std::printf("!! %s (sparse A): blocked kernel output differs from reference bitwise\n",
                  s.name);
      bits_ok = false;
    }
    const std::int64_t reps =
        std::max<std::int64_t>(2, (1 << 25) / std::max<std::int64_t>(s.flops(), 1));
    const double gf = static_cast<double>(s.flops()) * 1e-9;
    const auto [ref_s, new_s] = time_ab(
        7, reps, [&] { reference_gemm(a.data(), b.data(), out_ref.data(), s.m, s.k, s.n); },
        [&] {
          finite_cache cache;
          gemm_accumulate(a.data(), b.data(), out_new.data(), s.m, s.k, s.n, cache);
        });
    const auto [bt_ref_s, bt_new_s] = time_ab(
        7, reps,
        [&] { reference_gemm_bt(a.data(), bt.data(), out_bt_ref.data(), s.m, s.k, s.n, bt_scratch); },
        [&] {
          finite_cache cache;
          gemm_accumulate_bt(a.data(), bt.data(), out_bt_new.data(), s.m, s.k, s.n, cache);
        });
    result r;
    r.s = s;
    r.ref_gflops = gf / ref_s;
    r.blocked_gflops = gf / new_s;
    r.bt_ref_gflops = gf / bt_ref_s;
    r.bt_gflops = gf / bt_new_s;
    r.speedup = r.blocked_gflops / r.ref_gflops;
    r.bt_speedup = r.bt_gflops / r.bt_ref_gflops;
    sparse_results.push_back(r);
    std::printf("%-32s m=%-4lld k=%-5lld n=%-5lld  ref %6.2f -> blocked %7.2f GF/s (%5.2fx)   "
                "bt %6.2f -> %7.2f GF/s (%5.2fx)\n",
                s.name, static_cast<long long>(s.m), static_cast<long long>(s.k),
                static_cast<long long>(s.n), r.ref_gflops, r.blocked_gflops, r.speedup,
                r.bt_ref_gflops, r.bt_gflops, r.bt_speedup);
  }

  // ---- zero-skip gate overhead (report-only) ---------------------------------
  // gemm_accumulate on a dense A pays the A pre-scan, the scratch-panel
  // checkout and the dispatch before the tier kernel runs; the tier kernel
  // called directly (skip off, a preallocated panel) pays none of them. A
  // shape narrower than the tier's strip would make gemm_accumulate drop to
  // a narrower tier, so it is left out (n = 32 fits every tier).
  std::printf("\nzero-skip gate overhead, dense A (gemm_accumulate vs the tier kernel alone):\n");
  std::vector<gate_result> gate_results;
  for (const shape& s : k_shapes) {
    if (std::strncmp(s.name, "vit.token_linear", 16) != 0 || s.n < tier.gemm_nr) continue;
    const std::vector<float> a = random_vec(sgen, s.m * s.k, 0.0f);
    const std::vector<float> b = random_vec(sgen, s.k * s.n, 0.0f);
    std::vector<float> out(static_cast<std::size_t>(s.m * s.n), 0.0f);
    std::vector<float> panel(
        static_cast<std::size_t>(pelta::ops::detail::k_gemm_kc * pelta::ops::detail::k_gemm_nc));
    const std::int64_t reps =
        std::max<std::int64_t>(2, (1 << 25) / std::max<std::int64_t>(s.flops(), 1));
    const auto [gated_s, kernel_s] = time_ab(
        9, reps,
        [&] {
          finite_cache cache;
          gemm_accumulate(a.data(), b.data(), out.data(), s.m, s.k, s.n, cache);
        },
        [&] { tier.gemm(a.data(), b.data(), out.data(), s.m, s.k, s.n, false, panel.data()); });
    gate_result r{s, gated_s * 1e6, kernel_s * 1e6, gated_s / kernel_s - 1.0};
    gate_results.push_back(r);
    std::printf("%-32s m=%-4lld k=%-5lld n=%-5lld  gemm_accumulate %8.2f us   %s kernel %8.2f us"
                "   gate overhead %+6.1f%%\n",
                s.name, static_cast<long long>(s.m), static_cast<long long>(s.k),
                static_cast<long long>(s.n), r.gated_us, tier.name, r.kernel_us, 100.0 * r.overhead);
  }

  // ---- int8 quantized path vs the blocked fp32 kernel -----------------------
  // The fp32 side is the PR-4 blocked kernel (the serving baseline the int8
  // path replaces); the int8 side is the WHOLE quantized forward for one
  // layer — quantize activations, qgemm, dequantize epilogue — priced the
  // way serving actually pays it (weights quantize once, offline).
  std::printf("\nint8 quantized path (quantize + qgemm + dequantize) vs blocked fp32:\n");
  bool qbits_ok = true;
  std::vector<qresult> qresults;
  for (const shape& s : k_shapes) {
    const std::vector<float> a = random_vec(gen, s.m * s.k, 0.0f);
    const std::vector<float> b = random_vec(gen, s.k * s.n, 0.0f);
    const pelta::quant::quantized_weights qw =
        pelta::quant::quantize_weights_kn(b.data(), s.k, s.n);
    const float act_scale =
        pelta::quant::activation_scale(pelta::quant::absmax(a.data(), s.m * s.k));
    const std::int64_t lda = pelta::ops::detail::qgemm_row_stride(s.k);
    std::vector<std::uint8_t> a8(static_cast<std::size_t>(s.m * lda), 0);
    std::vector<std::int32_t> acc(static_cast<std::size_t>(s.m * s.n), 0);
    std::vector<std::int32_t> acc_ref = acc;
    std::vector<float> out_fp32(static_cast<std::size_t>(s.m * s.n), 0.0f);
    std::vector<float> out_int8 = out_fp32;

    // Correctness first: packed production kernel vs the frozen unpacked
    // reference, compared bitwise on the int32 accumulators.
    for (std::int64_t i = 0; i < s.m; ++i)
      pelta::quant::quantize_activations(a.data() + i * s.k, s.k, act_scale,
                                         a8.data() + i * lda);
    pelta::ops::detail::qgemm(a8.data(), lda, qw.packed.data(), qw.colsums.data(), acc.data(),
                              s.m, s.k, s.n);
    pelta::ops::reference::reference_qgemm(a8.data(), lda, qw.codes.data(), acc_ref.data(), s.m,
                                           s.k, s.n);
    if (std::memcmp(acc.data(), acc_ref.data(), acc.size() * sizeof(std::int32_t)) != 0) {
      std::printf("!! %s: qgemm differs from the frozen int8 reference bitwise\n", s.name);
      qbits_ok = false;
    }

    const std::int64_t reps =
        std::max<std::int64_t>(2, (1 << 25) / std::max<std::int64_t>(s.flops(), 1));
    const double gf = static_cast<double>(s.flops()) * 1e-9;
    const auto [fp32_s, int8_s] = time_ab(
        7, reps,
        [&] {
          finite_cache cache;
          gemm_accumulate(a.data(), b.data(), out_fp32.data(), s.m, s.k, s.n, cache);
        },
        [&] {
          for (std::int64_t i = 0; i < s.m; ++i)
            pelta::quant::quantize_activations(a.data() + i * s.k, s.k, act_scale,
                                               a8.data() + i * lda);
          pelta::ops::detail::qgemm(a8.data(), lda, qw.packed.data(), qw.colsums.data(),
                                    acc.data(), s.m, s.k, s.n);
          pelta::quant::dequantize_rows(acc.data(), s.m, s.n, act_scale, qw.scales.data(),
                                        nullptr, false, out_int8.data());
        });
    qresult r;
    r.s = s;
    r.fp32_gflops = gf / fp32_s;
    r.int8_gflops = gf / int8_s;
    r.speedup = r.int8_gflops / r.fp32_gflops;
    qresults.push_back(r);
    std::printf("%-32s m=%-4lld k=%-5lld n=%-5lld  fp32 %7.2f -> int8 %7.2f GF/s (%5.2fx)\n",
                s.name, static_cast<long long>(s.m), static_cast<long long>(s.k),
                static_cast<long long>(s.n), r.fp32_gflops, r.int8_gflops, r.speedup);
  }

  // ---- fn::exp / fn::tanh vs libm (report-only) ------------------------------
  // Inputs span the GELU/softmax range; the libm loop is the per-element
  // call the float paths made before tensor/mathfn.h.
  std::printf("\nfn:: vs libm over %lld elements (ns per element):\n",
              static_cast<long long>(k_gelu_elements));
  std::vector<mresult> mresults;
  {
    std::vector<float> in(static_cast<std::size_t>(k_gelu_elements));
    for (float& x : in) x = gen.uniform(-8.0f, 8.0f);
    std::vector<float> out(in.size());
    const auto per_element = [](double s) {
      return s * 1e9 / static_cast<double>(k_gelu_elements);
    };
    const auto row = [&](const char* name, const auto& fn_map, const auto& libm) {
      const auto [fn_s, libm_s] = time_ab(
          9, 4, [&] { fn_map(in.data(), out.data(), k_gelu_elements); },
          [&] {
            for (std::size_t i = 0; i < in.size(); ++i) out[i] = libm(in[i]);
          });
      mresult r{name, per_element(fn_s), per_element(libm_s), libm_s / fn_s};
      std::printf("%-6s fn:: %6.2f  libm %6.2f  (%5.2fx)\n", name, r.fn_ns, r.libm_ns,
                  r.speedup);
      mresults.push_back(r);
    };
    row(
        "tanh",
        [](const float* x, float* y, std::int64_t n) { pelta::fn::tanh(x, y, n); },
        [](float x) { return std::tanh(x); });
    row(
        "exp", [](const float* x, float* y, std::int64_t n) { pelta::fn::exp(x, y, n); },
        [](float x) { return std::exp(x); });
  }

  // ---- conv training passes at the ResNet-56-sim shapes (report-only) -------
  std::printf("\nconv_train, batch %lld, us per call (min thread CPU time):\n",
              static_cast<long long>(k_conv_batch));
  std::vector<conv_result> conv_results;
  {
    pelta::serial_guard guard;  // the batch loops run inline on this thread
    rng cg{2031};
    for (const conv_shape& s : k_resnet56_convs) {
      const pelta::tensor input = pelta::tensor::randn(cg, {k_conv_batch, s.c, s.hw, s.hw});
      const pelta::tensor weight = pelta::tensor::randn(cg, {s.oc, s.c, s.k, s.k});
      const pelta::tensor bias = pelta::tensor::randn(cg, {s.oc});
      const pelta::tensor out = pelta::ops::conv2d(input, weight, bias, s.stride, s.pad);
      const pelta::tensor grad = pelta::tensor::randn(cg, out.shape());
      conv_result r{&s};
      r.forward_us = min_thread_cpu_us(
          9, 8, [&] { (void)pelta::ops::conv2d(input, weight, bias, s.stride, s.pad); });
      r.backward_input_us = min_thread_cpu_us(9, 8, [&] {
        (void)pelta::ops::conv2d_backward_input(grad, weight, s.stride, s.pad, input.shape());
      });
      r.backward_weight_us = min_thread_cpu_us(9, 8, [&] {
        (void)pelta::ops::conv2d_backward_weight(grad, input, s.stride, s.pad, weight.shape());
      });
      conv_results.push_back(r);
      std::printf("%-30s forward %8.1f   backward_input %8.1f   backward_weight %8.1f\n",
                  s.name, r.forward_us, r.backward_input_us, r.backward_weight_us);
    }
  }

  // Scratch-arena steady state: after a warm-up conv2d round trip, further
  // identical calls must perform zero allocations.
  std::size_t steady_allocs = 0;
  {
    pelta::serial_guard guard;  // keep every checkout on this thread's arena
    rng cg{7};
    pelta::tensor input = pelta::tensor::randn(cg, {2, 16, 16, 16});
    pelta::tensor weight = pelta::tensor::randn(cg, {32, 16, 3, 3});
    pelta::tensor bias = pelta::tensor::rand_uniform(cg, {32});
    const auto round_trip = [&] {
      pelta::tensor out = pelta::ops::conv2d(input, weight, bias, 1, 1);
      pelta::tensor grad = pelta::tensor::ones(out.shape());
      pelta::ops::conv2d_backward_input(grad, weight, 1, 1, input.shape());
      pelta::ops::conv2d_backward_weight(grad, input, 1, 1, weight.shape());
    };
    round_trip();
    const std::size_t before = pelta::scratch_arena::local().block_allocations();
    round_trip();
    round_trip();
    steady_allocs = pelta::scratch_arena::local().block_allocations() - before;
  }
  std::printf("\nconv2d steady-state arena allocations per call: %zu (want 0)\n", steady_allocs);

  // The acceptance gate: single-thread speedup on the two largest shapes.
  std::vector<const result*> by_flops;
  for (const result& r : results) by_flops.push_back(&r);
  std::sort(by_flops.begin(), by_flops.end(),
            [](const result* x, const result* y) { return x->s.flops() > y->s.flops(); });
  const double min_large_speedup = std::min(by_flops[0]->speedup, by_flops[1]->speedup);
  const double threshold = env_threshold();
  std::printf("two largest shapes: %.2fx / %.2fx (threshold %.1fx)\n", by_flops[0]->speedup,
              by_flops[1]->speedup, threshold);

  // Same two-largest-shapes gate for the int8 path, against the blocked
  // fp32 kernel it must beat to earn its place in the serving stack.
  std::vector<const qresult*> q_by_flops;
  for (const qresult& r : qresults) q_by_flops.push_back(&r);
  std::sort(q_by_flops.begin(), q_by_flops.end(),
            [](const qresult* x, const qresult* y) { return x->s.flops() > y->s.flops(); });
  const double min_large_q_speedup = std::min(q_by_flops[0]->speedup, q_by_flops[1]->speedup);
  const double q_threshold = env_int8_threshold(tier.tier);
  std::printf("int8 two largest shapes: %.2fx / %.2fx (threshold %.1fx)\n",
              q_by_flops[0]->speedup, q_by_flops[1]->speedup, q_threshold);

  // Machine-readable trajectory record.
  {
    pelta::bench::json gemm = pelta::bench::json::array();
    for (const result& r : results) {
      gemm.push(pelta::bench::json::object()
                    .field("name", r.s.name)
                    .field("m", r.s.m)
                    .field("k", r.s.k)
                    .field("n", r.s.n)
                    .field("flops", r.s.flops())
                    .field("ref_gflops", r.ref_gflops)
                    .field("blocked_gflops", r.blocked_gflops)
                    .field("speedup", r.speedup)
                    .field("bt_ref_gflops", r.bt_ref_gflops)
                    .field("bt_gflops", r.bt_gflops)
                    .field("bt_speedup", r.bt_speedup));
    }
    pelta::bench::json gemm_sparse = pelta::bench::json::array();
    for (const result& r : sparse_results) {
      gemm_sparse.push(pelta::bench::json::object()
                           .field("name", r.s.name)
                           .field("m", r.s.m)
                           .field("k", r.s.k)
                           .field("n", r.s.n)
                           .field("zero_fraction", static_cast<double>(k_relu_zero_fraction))
                           .field("ref_gflops", r.ref_gflops)
                           .field("blocked_gflops", r.blocked_gflops)
                           .field("speedup", r.speedup)
                           .field("bt_ref_gflops", r.bt_ref_gflops)
                           .field("bt_gflops", r.bt_gflops)
                           .field("bt_speedup", r.bt_speedup));
    }
    pelta::bench::json gate = pelta::bench::json::array();
    for (const gate_result& r : gate_results) {
      gate.push(pelta::bench::json::object()
                    .field("name", r.s.name)
                    .field("m", r.s.m)
                    .field("k", r.s.k)
                    .field("n", r.s.n)
                    .field("gemm_accumulate_us", r.gated_us)
                    .field("tier_kernel_us", r.kernel_us)
                    .field("gate_overhead", r.overhead));
    }
    pelta::bench::json int8 = pelta::bench::json::array();
    for (const qresult& r : qresults) {
      int8.push(pelta::bench::json::object()
                    .field("name", r.s.name)
                    .field("m", r.s.m)
                    .field("k", r.s.k)
                    .field("n", r.s.n)
                    .field("flops", r.s.flops())
                    .field("fp32_gflops", r.fp32_gflops)
                    .field("int8_gflops", r.int8_gflops)
                    .field("speedup", r.speedup));
    }
    pelta::bench::json mathfn = pelta::bench::json::array();
    for (const mresult& r : mresults) {
      mathfn.push(pelta::bench::json::object()
                      .field("name", r.name)
                      .field("elements", k_gelu_elements)
                      .field("fn_ns_per_element", r.fn_ns)
                      .field("libm_ns_per_element", r.libm_ns)
                      .field("speedup", r.speedup));
    }
    pelta::bench::json conv_train = pelta::bench::json::array();
    for (const conv_result& r : conv_results) {
      conv_train.push(pelta::bench::json::object()
                          .field("name", r.s->name)
                          .field("batch", k_conv_batch)
                          .field("channels", r.s->c)
                          .field("size", r.s->hw)
                          .field("out_channels", r.s->oc)
                          .field("kernel", r.s->k)
                          .field("stride", r.s->stride)
                          .field("pad", r.s->pad)
                          .field("forward_us", r.forward_us)
                          .field("backward_input_us", r.backward_input_us)
                          .field("backward_weight_us", r.backward_weight_us));
    }
    pelta::bench::json::object()
        .field("bench", "kernels")
        .field("threads", 1)
        .field("isa_tier", tier.name)
        .field("gemm", gemm)
        .field("gemm_sparse", gemm_sparse)
        .field("gate_overhead", gate)
        .field("int8", int8)
        .field("mathfn", mathfn)
        .field("conv_train", conv_train)
        .field("conv_arena_steady_state_allocations", steady_allocs)
        .field("two_largest_min_speedup", min_large_speedup)
        .field("speedup_threshold", threshold)
        .field("bits_match_reference", bits_ok)
        .field("int8_two_largest_min_speedup", min_large_q_speedup)
        .field("int8_speedup_threshold", q_threshold)
        .field("int8_bits_match_reference", qbits_ok)
        .write_file("BENCH_kernels.json");
  }

  bool ok = bits_ok && qbits_ok && steady_allocs == 0;
  if (threshold > 0 && min_large_speedup < threshold) {
    std::printf("FAIL: blocked kernel below %.1fx on the largest shapes\n", threshold);
    ok = false;
  }
  if (q_threshold > 0 && min_large_q_speedup < q_threshold) {
    std::printf("FAIL: int8 path below %.1fx over blocked fp32 on the largest shapes\n",
                q_threshold);
    ok = false;
  }
  if (!ok)
    std::printf("see docs/BENCHMARKS.md for this bench's gate, knobs and expected output\n");
  std::printf("%s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
