// fn::exp / fn::tanh (tensor/mathfn.h): error bounds against a double
// reference over a strided sweep of every finite float, the IEEE edge
// cases, a pinned-hex output table, and the ops routed through them (GELU,
// softmax, log-softmax). The pinned table is what makes a libm or compiler
// change unable to move a logit: it must pass unchanged on the portable and
// the PELTA_NATIVE build. The static initializer pins PELTA_THREADS=8
// (without overriding an explicit setting) so the pooled runs really cross
// threads.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "autodiff/graph.h"
#include "autodiff/ops_elementwise.h"
#include "kernel_tiers.h"
#include "models/model.h"
#include "models/zoo.h"
#include "tensor/mathfn.h"
#include "tensor/ops.h"
#include "tensor/parallel.h"
#include "tensor/rng.h"

namespace pelta {
namespace {

const bool k_threads_pinned = [] {
  setenv("PELTA_THREADS", "8", /*overwrite=*/0);
  return true;
}();

std::uint32_t bits_of(float x) {
  std::uint32_t b = 0;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

float float_of(std::uint32_t b) {
  float x = 0.0f;
  std::memcpy(&x, &b, sizeof x);
  return x;
}

// |got - ref| in units of the float ulp at the reference's binade (the
// denormal ulp 2^-149 below FLT_MIN).
double ulp_error(double ref, float got) {
  const int e = ref == 0.0 ? -126 : std::max(std::ilogb(ref), -126);
  return std::fabs(static_cast<double>(got) - ref) / std::ldexp(1.0, e - 23);
}

struct sweep_result {
  double max_ulp = 0.0;
  float worst_x = 0.0f;
  std::int64_t checked = 0;
};

// Every 97th bit pattern that encodes a finite float, mapped in chunks
// through the array entry; `ref` returns NaN for inputs outside the bound's
// domain.
template <class Map, class Ref>
sweep_result sweep(const Map& map, const Ref& ref) {
  constexpr std::uint64_t k_stride = 97;
  constexpr std::size_t k_chunk = 4096;
  sweep_result out;
  std::vector<float> xs, ys(k_chunk);
  xs.reserve(k_chunk);
  const auto flush = [&] {
    map(xs.data(), ys.data(), static_cast<std::int64_t>(xs.size()));
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const double r = ref(xs[i]);
      if (std::isnan(r)) continue;
      const double err = ulp_error(r, ys[i]);
      ++out.checked;
      if (!(err <= out.max_ulp)) {
        out.max_ulp = err;
        out.worst_x = xs[i];
      }
    }
    xs.clear();
  };
  for (std::uint64_t b = 0; b <= 0xffffffffu; b += k_stride) {
    const float x = float_of(static_cast<std::uint32_t>(b));
    if (!std::isfinite(x)) continue;
    xs.push_back(x);
    if (xs.size() == k_chunk) flush();
  }
  flush();
  return out;
}

TEST(Mathfn, ExpWithinOneUlpWhereTheResultIsNormal) {
  const sweep_result r = sweep(
      [](const float* in, float* out, std::int64_t n) { fn::exp(in, out, n); },
      [](float x) {
        const double e = std::exp(static_cast<double>(x));
        const bool normal = e >= static_cast<double>(std::numeric_limits<float>::min()) &&
                            e <= static_cast<double>(std::numeric_limits<float>::max());
        return normal ? e : std::nan("");
      });
  EXPECT_GT(r.checked, 1'000'000);
  EXPECT_LE(r.max_ulp, 1.0) << "worst x = " << std::hexfloat << r.worst_x;
}

TEST(Mathfn, TanhWithinTwoUlpEverywhere) {
  const sweep_result r = sweep(
      [](const float* in, float* out, std::int64_t n) { fn::tanh(in, out, n); },
      [](float x) { return std::tanh(static_cast<double>(x)); });
  EXPECT_GT(r.checked, 40'000'000);
  EXPECT_LE(r.max_ulp, 2.0) << "worst x = " << std::hexfloat << r.worst_x;
}

TEST(Mathfn, ExpEdgeCases) {
  constexpr float inf = std::numeric_limits<float>::infinity();
  constexpr float denorm = std::numeric_limits<float>::denorm_min();
  EXPECT_EQ(bits_of(fn::exp(0.0f)), bits_of(1.0f));
  EXPECT_EQ(bits_of(fn::exp(-0.0f)), bits_of(1.0f));
  EXPECT_EQ(fn::exp(denorm), 1.0f);  // denormal inputs
  EXPECT_EQ(fn::exp(-denorm), 1.0f);
  EXPECT_EQ(fn::exp(inf), inf);
  EXPECT_EQ(bits_of(fn::exp(-inf)), bits_of(0.0f));  // +0, not -0
  EXPECT_TRUE(std::isnan(fn::exp(std::numeric_limits<float>::quiet_NaN())));
  EXPECT_TRUE(std::isnan(fn::exp(-std::numeric_limits<float>::quiet_NaN())));
  // Overflow edge: the last float below ln(FLT_MAX) is finite, the next one
  // (and everything above it) is +Inf.
  const float below = float_of(0x42b17217u);
  EXPECT_TRUE(std::isfinite(fn::exp(below)));
  EXPECT_LE(ulp_error(std::exp(static_cast<double>(below)), fn::exp(below)), 1.0);
  EXPECT_EQ(fn::exp(float_of(0x42b17218u)), inf);
  EXPECT_EQ(fn::exp(100.0f), inf);
  EXPECT_EQ(fn::exp(std::numeric_limits<float>::max()), inf);
  // Underflow: denormal results are within one denormal ulp of the double
  // reference, and past ln(2^-150) the result is exactly +0.
  for (const float x : {-87.4f, -90.0f, -95.5f, -100.0f, -103.0f, -103.9f}) {
    const float got = fn::exp(x);
    EXPECT_LT(got, std::numeric_limits<float>::min()) << x;
    EXPECT_LE(ulp_error(std::exp(static_cast<double>(x)), got), 1.0) << x;
  }
  EXPECT_GE(fn::exp(-87.3f), std::numeric_limits<float>::min());
  EXPECT_EQ(bits_of(fn::exp(-104.0f)), 0u);
  EXPECT_EQ(bits_of(fn::exp(-1000.0f)), 0u);
  EXPECT_EQ(bits_of(fn::exp(std::numeric_limits<float>::lowest())), 0u);
}

TEST(Mathfn, TanhEdgeCases) {
  constexpr float inf = std::numeric_limits<float>::infinity();
  constexpr float denorm = std::numeric_limits<float>::denorm_min();
  EXPECT_EQ(bits_of(fn::tanh(0.0f)), bits_of(0.0f));
  EXPECT_EQ(bits_of(fn::tanh(-0.0f)), bits_of(-0.0f));
  EXPECT_EQ(bits_of(fn::tanh(denorm)), bits_of(denorm));  // tanh(x) == x this small
  EXPECT_EQ(bits_of(fn::tanh(-denorm)), bits_of(-denorm));
  EXPECT_EQ(fn::tanh(1e-20f), 1e-20f);
  EXPECT_EQ(fn::tanh(inf), 1.0f);
  EXPECT_EQ(fn::tanh(-inf), -1.0f);
  EXPECT_TRUE(std::isnan(fn::tanh(std::numeric_limits<float>::quiet_NaN())));
  EXPECT_TRUE(std::isnan(fn::tanh(-std::numeric_limits<float>::quiet_NaN())));
  // Saturation: exactly ±1 once 1 - tanh(x) rounds away (|x| ≈ 9.01), and
  // strictly inside before it.
  for (const float x : {9.1f, 10.0f, 20.0f, 100.0f, std::numeric_limits<float>::max()}) {
    EXPECT_EQ(fn::tanh(x), 1.0f) << x;
    EXPECT_EQ(fn::tanh(-x), -1.0f) << x;
  }
  EXPECT_LT(fn::tanh(8.0f), 1.0f);
  EXPECT_GT(fn::tanh(-8.0f), -1.0f);
  // Both sides of the polynomial / exp branch switch at 0.625.
  for (const float x : {std::nextafter(0.625f, 0.0f), 0.625f, std::nextafter(0.625f, 1.0f)})
    EXPECT_LE(ulp_error(std::tanh(static_cast<double>(x)), fn::tanh(x)), 2.0) << x;
  // Exactly odd.
  rng gen{7};
  for (int i = 0; i < 1000; ++i) {
    const float x = gen.uniform(-12.0f, 12.0f);
    EXPECT_EQ(bits_of(fn::tanh(-x)), bits_of(fn::tanh(x)) ^ 0x80000000u) << x;
  }
}

// Outputs pinned as bit patterns. A change to the polynomial, the reduction
// or the compile flags of mathfn.cpp shows up here as a failure; it must
// then be a deliberate change, with every re-derived output listed.
TEST(Mathfn, PinnedHexTable) {
  struct row {
    float x;
    std::uint32_t exp_bits;
    std::uint32_t tanh_bits;
  };
  const row table[] = {
      {-103.5f, 0x00000001u, 0xbf800000u}, {-87.5f, 0x006cb2bcu, 0xbf800000u},
      {-20.0f, 0x310da433u, 0xbf800000u},  {-9.5f, 0x389cf9c5u, 0xbf800000u},
      {-3.0f, 0x3d4bed86u, 0xbf7ebbe9u},   {-1.0f, 0x3ebc5ab2u, 0xbf42f7d6u},
      {-0.625f, 0x3f0906e5u, 0xbf0dfa40u}, {-0.5f, 0x3f1b4598u, 0xbeec9a9fu},
      {-1e-3f, 0x3f7fbe7fu, 0xba83126cu},  {-1e-5f, 0x3f7fff58u, 0xb727c5acu},
      {0.0f, 0x3f800000u, 0x00000000u},    {1e-5f, 0x3f800054u, 0x3727c5acu},
      {1e-3f, 0x3f8020c9u, 0x3a83126cu},   {0.1f, 0x3f8d763eu, 0x3dcc1ebcu},
      {0.3465f, 0x3fb5018au, 0x3eaaa218u}, {0.5f, 0x3fd3094cu, 0x3eec9a9fu},
      {0.6249f, 0x3fef1c90u, 0x3f0df5b5u}, {0.625f, 0x3fef22afu, 0x3f0dfa40u},
      {1.0f, 0x402df854u, 0x3f42f7d6u},    {2.5f, 0x4142eb7fu, 0x3f7c92c1u},
      {5.0f, 0x431469c5u, 0x3f7ffa0du},    {8.0f, 0x453a4f54u, 0x3f7ffffcu},
      {20.0f, 0x4de75844u, 0x3f800000u},   {88.5f, 0x7f4cdcc4u, 0x3f800000u},
  };
  // Scalar entry and one array map over the whole table (full vectors at
  // every tier's width), on every tier.
  std::vector<float> xs;
  for (const row& r : table) xs.push_back(r.x);
  const auto n = static_cast<std::int64_t>(xs.size());
  testing::for_each_tier([&](const ops::detail::kernel_table& tier) {
    std::vector<float> e(xs.size()), t(xs.size());
    fn::exp(xs.data(), e.data(), n);
    fn::tanh(xs.data(), t.data(), n);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const row& r = table[i];
      EXPECT_EQ(bits_of(fn::exp(r.x)), r.exp_bits) << tier.name << " exp(" << r.x << ")";
      EXPECT_EQ(bits_of(fn::tanh(r.x)), r.tanh_bits) << tier.name << " tanh(" << r.x << ")";
      EXPECT_EQ(bits_of(e[i]), r.exp_bits) << tier.name << " exp array (" << r.x << ")";
      EXPECT_EQ(bits_of(t[i]), r.tanh_bits) << tier.name << " tanh array (" << r.x << ")";
    }
  });
}

// One vector body: every length (full vectors, every tail width), the
// in-place form and the scalar entry give the same bits per element, on
// every tier.
TEST(Mathfn, ScalarArrayTailAndInPlaceAgree) {
  rng gen{11};
  testing::for_each_tier([&](const ops::detail::kernel_table& tier) {
    const std::int64_t lanes = tier.gemm_nr / 2;
    for (std::int64_t n = 0; n <= 3 * lanes + 1; ++n) {
      std::vector<float> x(static_cast<std::size_t>(n));
      for (float& v : x) v = gen.uniform(-30.0f, 30.0f);
      std::vector<float> e(x.size()), t(x.size()), e_in = x, t_in = x;
      fn::exp(x.data(), e.data(), n);
      fn::tanh(x.data(), t.data(), n);
      fn::exp(e_in.data(), e_in.data(), n);
      fn::tanh(t_in.data(), t_in.data(), n);
      for (std::size_t i = 0; i < x.size(); ++i) {
        EXPECT_EQ(bits_of(e[i]), bits_of(fn::exp(x[i]))) << tier.name << " n=" << n << " i=" << i;
        EXPECT_EQ(bits_of(t[i]), bits_of(fn::tanh(x[i]))) << tier.name << " n=" << n << " i=" << i;
        EXPECT_EQ(bits_of(e_in[i]), bits_of(e[i]));
        EXPECT_EQ(bits_of(t_in[i]), bits_of(t[i]));
      }
    }
  });
}

TEST(Mathfn, TensorOpsMatchTheScalarEntry) {
  rng gen{13};
  const tensor a = tensor::randn(gen, {3, 37}, 0.0f, 4.0f);
  const tensor e = ops::exp(a);
  const tensor t = ops::tanh(a);
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_EQ(bits_of(e[i]), bits_of(fn::exp(a[i])));
    EXPECT_EQ(bits_of(t[i]), bits_of(fn::tanh(a[i])));
  }
}

// ---- the ops routed through fn:: --------------------------------------------

tensor forward_of(ad::op_ptr op, const tensor& x) {
  ad::graph gr;
  const ad::node_id in = gr.add_input(x);
  return gr.value(gr.add_transform(std::move(op), {in}));
}

tensor input_grad_of(ad::op_ptr op, const tensor& x, const tensor& seed) {
  ad::graph gr;
  const ad::node_id in = gr.add_input(x);
  gr.backward_from(gr.add_transform(std::move(op), {in}), seed);
  return gr.adjoint(in);
}

TEST(MathfnRouted, GeluPropagatesNanAndSaturatesAtLargeMagnitude) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const tensor x{{7}, {nan, 10.0f, -10.0f, 20.0f, -20.0f, 100.0f, -100.0f}};
  const tensor y = forward_of(ad::make_gelu(), x);
  EXPECT_TRUE(std::isnan(y[0]));
  // tanh saturates to exactly ±1: gelu(x) == x above, == 0 below.
  for (const std::int64_t i : {1, 3, 5}) EXPECT_EQ(y[i], x[i]) << x[i];
  for (const std::int64_t i : {2, 4, 6}) EXPECT_EQ(y[i], 0.0f) << x[i];
  const tensor g = input_grad_of(ad::make_gelu(), x, tensor::ones({7}));
  EXPECT_TRUE(std::isnan(g[0]));
  for (const std::int64_t i : {1, 3, 5}) EXPECT_EQ(g[i], 1.0f) << x[i];
  for (const std::int64_t i : {2, 4, 6}) EXPECT_EQ(g[i], 0.0f) << x[i];
}

TEST(MathfnRouted, SoftmaxPropagatesNanPerRowAndSaturates) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // Row 0 holds a NaN; row 1 spans ±10; row 2's spread underflows exp.
  const tensor x{{3, 3}, {0.0f, nan, 1.0f, -10.0f, 0.0f, 10.0f, 0.0f, 200.0f, -200.0f}};
  const tensor s = forward_of(ad::make_softmax_lastdim(), x);
  const tensor ls = forward_of(ad::make_log_softmax_lastdim(), x);
  for (std::int64_t c = 0; c < 3; ++c) {
    EXPECT_TRUE(std::isnan(s.at(0, c))) << c;
    EXPECT_TRUE(std::isnan(ls.at(0, c))) << c;
  }
  double z = 0.0;
  for (std::int64_t c = 0; c < 3; ++c) z += std::exp(static_cast<double>(x.at(1, c)) - 10.0);
  for (std::int64_t c = 0; c < 3; ++c) {
    const double want = std::exp(static_cast<double>(x.at(1, c)) - 10.0) / z;
    EXPECT_NEAR(s.at(1, c), want, 4e-7 * want) << c;
    EXPECT_NEAR(ls.at(1, c), std::log(want), 4e-6) << c;
  }
  EXPECT_EQ(s.at(2, 0), 0.0f);
  EXPECT_EQ(s.at(2, 1), 1.0f);
  EXPECT_EQ(s.at(2, 2), 0.0f);
  EXPECT_EQ(ls.at(2, 0), -200.0f);
  EXPECT_EQ(ls.at(2, 1), 0.0f);
  EXPECT_EQ(ls.at(2, 2), -400.0f);
}

// Serving's batched ≡ per-request guarantee, now through fn:: in every
// GELU and attention softmax: batch-1 logits equal row b of the batch-32
// logits bit for bit, on the serial schedule and on the 8-wide pool.
TEST(MathfnRouted, VitBatchOneLogitsEqualBatchRowsAtEveryWidth) {
  models::task_spec task;
  task.image_size = 16;
  task.channels = 3;
  task.classes = 10;
  task.seed = 3;
  const auto model = models::make_vit_b16_sim(task);
  rng gen{17};
  constexpr std::int64_t batch = 32;
  const tensor images = tensor::randn(gen, {batch, 3, 16, 16});
  const std::int64_t per_image = images.numel() / batch;

  // Returns the batch logits so the two widths can be compared too.
  const auto check = [&](const std::string& width) {
    const tensor logits = models::predict_logits(*model, images);
    EXPECT_EQ(logits.shape(), (shape_t{batch, 10}));
    for (std::int64_t b = 0; b < batch; ++b) {
      tensor one{{1, 3, 16, 16}};
      std::memcpy(one.data().data(), images.data().data() + b * per_image,
                  static_cast<std::size_t>(per_image) * sizeof(float));
      const tensor row = models::predict_logits(*model, one);
      EXPECT_EQ(0, std::memcmp(row.data().data(), logits.data().data() + b * 10,
                               10 * sizeof(float)))
          << width << " row " << b;
    }
    return logits;
  };
  tensor serial;
  {
    serial_guard guard;
    serial = check("PELTA_THREADS=1");
  }
  const tensor pooled = check("PELTA_THREADS=" + std::to_string(parallel_thread_count()));
  EXPECT_EQ(0, std::memcmp(serial.data().data(), pooled.data().data(),
                           static_cast<std::size_t>(serial.numel()) * sizeof(float)));
}

}  // namespace
}  // namespace pelta
