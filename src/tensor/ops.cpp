#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "tensor/kernels.h"
#include "tensor/mathfn.h"
#include "tensor/parallel.h"

namespace pelta::ops {

namespace {

// Elementwise loops split across the pool only above this many elements per
// chunk; below it the whole tensor runs inline on the calling thread with no
// pool (or std::function) overhead. Each output element depends on its own
// inputs only, so the split is bit-identical for every PELTA_THREADS value.
constexpr std::int64_t k_elementwise_grain = 1 << 15;

template <class F>
void elementwise_dispatch(std::int64_t n, const F& chunk) {
  if (n > k_elementwise_grain)
    parallel_for_range(n, k_elementwise_grain,
                       [&](std::int64_t lo, std::int64_t hi) { chunk(lo, hi); });
  else
    chunk(0, n);
}

// F is a template parameter (not a function pointer) so the compiler can
// inline the op into the vectorized loop body.
template <class F>
tensor zip(const tensor& a, const tensor& b, const char* what, const F& f) {
  PELTA_CHECK_MSG(a.same_shape(b), what << " shape mismatch " << to_string(a.shape()) << " vs "
                                        << to_string(b.shape()));
  tensor out{a.shape()};
  const float* pa = a.data().data();
  const float* pb = b.data().data();
  float* po = out.data().data();
  elementwise_dispatch(out.numel(), [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) po[i] = f(pa[i], pb[i]);
  });
  return out;
}

template <class F>
tensor unary(const tensor& a, const F& f) {
  tensor out{a.shape()};
  const float* pa = a.data().data();
  float* po = out.data().data();
  elementwise_dispatch(out.numel(), [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) po[i] = f(pa[i]);
  });
  return out;
}

// Unary op given as an array map (fn::exp, fn::tanh). Their values do not
// depend on where a chunk starts or ends, so the split stays bit-identical.
template <class F>
tensor unary_map(const tensor& a, const F& map) {
  tensor out{a.shape()};
  const float* pa = a.data().data();
  float* po = out.data().data();
  elementwise_dispatch(out.numel(),
                       [&](std::int64_t lo, std::int64_t hi) { map(pa + lo, po + lo, hi - lo); });
  return out;
}

}  // namespace

tensor add(const tensor& a, const tensor& b) {
  return zip(a, b, "add", [](float x, float y) { return x + y; });
}
tensor sub(const tensor& a, const tensor& b) {
  return zip(a, b, "sub", [](float x, float y) { return x - y; });
}
tensor mul(const tensor& a, const tensor& b) {
  return zip(a, b, "mul", [](float x, float y) { return x * y; });
}
tensor div(const tensor& a, const tensor& b) {
  return zip(a, b, "div", [](float x, float y) { return x / y; });
}

tensor add_scalar(const tensor& a, float s) {
  return unary(a, [s](float x) { return x + s; });
}

tensor mul_scalar(const tensor& a, float s) {
  return unary(a, [s](float x) { return x * s; });
}

tensor neg(const tensor& a) {
  return unary(a, [](float x) { return -x; });
}
tensor relu(const tensor& a) {
  return unary(a, [](float x) { return x > 0.0f ? x : 0.0f; });
}
tensor exp(const tensor& a) {
  return unary_map(a, [](const float* in, float* out, std::int64_t n) { fn::exp(in, out, n); });
}
tensor log(const tensor& a) {
  return unary(a, [](float x) { return std::log(x); });
}
tensor sqrt(const tensor& a) {
  return unary(a, [](float x) { return std::sqrt(x); });
}
tensor tanh(const tensor& a) {
  return unary_map(a, [](const float* in, float* out, std::int64_t n) { fn::tanh(in, out, n); });
}
tensor abs(const tensor& a) {
  return unary(a, [](float x) { return std::fabs(x); });
}
tensor sign(const tensor& a) {
  return unary(a, [](float x) { return x > 0.0f ? 1.0f : (x < 0.0f ? -1.0f : 0.0f); });
}

tensor clamp(const tensor& a, float lo, float hi) {
  tensor out = a;
  out.clamp_(lo, hi);
  return out;
}

tensor map(const tensor& a, const std::function<float(float)>& f) {
  return unary(a, f);
}

float sum(const tensor& a) {
  double acc = 0.0;  // double accumulator for numerical stability
  for (float x : a.data()) acc += x;
  return static_cast<float>(acc);
}

float mean(const tensor& a) {
  PELTA_CHECK(a.numel() > 0);
  return sum(a) / static_cast<float>(a.numel());
}

float max(const tensor& a) {
  PELTA_CHECK(a.numel() > 0);
  return *std::max_element(a.data().begin(), a.data().end());
}

float min(const tensor& a) {
  PELTA_CHECK(a.numel() > 0);
  return *std::min_element(a.data().begin(), a.data().end());
}

std::int64_t argmax(const tensor& a) {
  PELTA_CHECK(a.numel() > 0);
  auto d = a.data();
  return static_cast<std::int64_t>(std::max_element(d.begin(), d.end()) - d.begin());
}

tensor argmax_lastdim(const tensor& a) {
  PELTA_CHECK_MSG(a.ndim() >= 1, "argmax_lastdim on scalar");
  const std::int64_t last = a.size(-1);
  const std::int64_t rows = a.numel() / last;
  shape_t out_shape{a.shape().begin(), a.shape().end() - 1};
  tensor out{out_shape};
  auto pa = a.data();
  auto po = out.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = pa.data() + r * last;
    std::int64_t best = 0;
    for (std::int64_t c = 1; c < last; ++c)
      if (row[c] > row[best]) best = c;
    po[static_cast<std::size_t>(r)] = static_cast<float>(best);
  }
  return out;
}

float norm_l2(const tensor& a) {
  double acc = 0.0;
  for (float x : a.data()) acc += static_cast<double>(x) * x;
  return static_cast<float>(std::sqrt(acc));
}

float norm_linf(const tensor& a) {
  float m = 0.0f;
  for (float x : a.data()) m = std::max(m, std::fabs(x));
  return m;
}

float dot(const tensor& a, const tensor& b) {
  PELTA_CHECK_MSG(a.same_shape(b), "dot shape mismatch");
  double acc = 0.0;
  auto pa = a.data();
  auto pb = b.data();
  for (std::size_t i = 0; i < pa.size(); ++i) acc += static_cast<double>(pa[i]) * pb[i];
  return static_cast<float>(acc);
}

namespace {

// Below this flop count the pool submit overhead beats the row split.
constexpr std::int64_t k_parallel_flops = 1 << 15;

void gemm_any(const float* a, const float* b, float* out, std::int64_t m, std::int64_t k,
              std::int64_t n, bool b_transposed, detail::finite_cache& b_finite) {
  if (b_transposed)
    detail::gemm_accumulate_bt(a, b, out, m, k, n, b_finite);
  else
    detail::gemm_accumulate(a, b, out, m, k, n, b_finite);
}

tensor bmm_impl(const tensor& a, const tensor& b, bool b_transposed) {
  PELTA_CHECK_MSG(a.ndim() == 3 && b.ndim() == 3,
                  "bmm expects 3-d, got " << to_string(a.shape()) << " x " << to_string(b.shape()));
  const std::int64_t bt = a.size(0), m = a.size(1), k = a.size(2);
  const std::int64_t n = b.size(b_transposed ? 1 : 2);
  PELTA_CHECK_MSG(b.size(0) == bt && b.size(b_transposed ? 2 : 1) == k,
                  "bmm shape mismatch " << to_string(a.shape()) << " x " << to_string(b.shape())
                                        << (b_transposed ? " (transposed)" : ""));
  tensor out{shape_t{bt, m, n}};
  const float* pa = a.data().data();
  const float* pb = b.data().data();
  float* po = out.data().data();
  const auto one_batch = [&](std::int64_t i) {
    detail::finite_cache b_finite;  // per batch: each has its own B slice
    gemm_any(pa + i * m * k, pb + i * k * n, po + i * m * n, m, k, n, b_transposed, b_finite);
  };
  if (bt >= 2 && bt * m * k * n >= k_parallel_flops) {
    parallel_for(bt, one_batch);  // batches write disjoint output slices
  } else {
    for (std::int64_t i = 0; i < bt; ++i) one_batch(i);
  }
  return out;
}

}  // namespace

void matmul_accumulate(const float* a, const float* b, float* out, std::int64_t m, std::int64_t k,
                       std::int64_t n, bool b_transposed) {
  detail::finite_cache b_finite;  // shared across chunks: B scanned at most once
  if (m >= 2 && m * k * n >= k_parallel_flops) {
    // Output rows are disjoint, so the split is bit-identical to serial.
    // The grain rounds up to the register-tile height so mid-matrix chunks
    // keep full row tiles (a throughput concern only — element values are
    // independent of the chunk partitioning).
    constexpr std::int64_t mr = detail::k_gemm_mr;
    std::int64_t grain =
        std::max<std::int64_t>(1, m / (8 * static_cast<std::int64_t>(parallel_thread_count())));
    grain = (grain + mr - 1) / mr * mr;
    parallel_for_range(m, grain, [&](std::int64_t lo, std::int64_t hi) {
      gemm_any(a + lo * k, b, out + lo * n, hi - lo, k, n, b_transposed, b_finite);
    });
  } else {
    gemm_any(a, b, out, m, k, n, b_transposed, b_finite);
  }
}

void transpose_into(const float* a, float* out, std::int64_t m, std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) out[j * m + i] = a[i * n + j];
}

tensor matmul(const tensor& a, const tensor& b) {
  PELTA_CHECK_MSG(a.ndim() == 2 && b.ndim() == 2,
                  "matmul expects 2-d, got " << to_string(a.shape()) << " x " << to_string(b.shape()));
  PELTA_CHECK_MSG(a.size(1) == b.size(0),
                  "matmul inner dim mismatch " << to_string(a.shape()) << " x " << to_string(b.shape()));
  tensor out{shape_t{a.size(0), b.size(1)}};
  matmul_accumulate(a.data().data(), b.data().data(), out.data().data(), a.size(0), a.size(1),
                    b.size(1));
  return out;
}

tensor bmm(const tensor& a, const tensor& b) { return bmm_impl(a, b, /*b_transposed=*/false); }

tensor bmm_bt(const tensor& a, const tensor& bt) { return bmm_impl(a, bt, /*b_transposed=*/true); }

tensor transpose2d(const tensor& a) {
  PELTA_CHECK_MSG(a.ndim() == 2, "transpose2d on " << to_string(a.shape()));
  const std::int64_t m = a.size(0), n = a.size(1);
  tensor out{shape_t{n, m}};
  transpose_into(a.data().data(), out.data().data(), m, n);
  return out;
}

tensor transpose_last2(const tensor& a) {
  PELTA_CHECK_MSG(a.ndim() == 3, "transpose_last2 on " << to_string(a.shape()));
  const std::int64_t b = a.size(0), m = a.size(1), n = a.size(2);
  tensor out{shape_t{b, n, m}};
  for (std::int64_t t = 0; t < b; ++t)
    transpose_into(a.data().data() + t * m * n, out.data().data() + t * m * n, m, n);
  return out;
}

}  // namespace pelta::ops
