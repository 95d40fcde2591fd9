#include "autodiff/ops_elementwise.h"

#include <cmath>

#include "tensor/mathfn.h"
#include "tensor/ops.h"

namespace pelta::ad {

namespace {

class add_op final : public op {
public:
  std::string_view name() const override { return "add"; }

  tensor forward(std::span<const tensor* const> in) override {
    PELTA_CHECK(in.size() == 2);
    return ops::add(*in[0], *in[1]);
  }

  std::vector<tensor> backward(const tensor& g, std::span<const tensor* const>,
                               const tensor&) const override {
    return {g, g};
  }
};

class add_broadcast_op final : public op {
public:
  std::string_view name() const override { return "add_broadcast"; }

  tensor forward(std::span<const tensor* const> in) override {
    PELTA_CHECK(in.size() == 2);
    const tensor& a = *in[0];
    const tensor& b = *in[1];
    PELTA_CHECK_MSG(b.ndim() <= a.ndim(), "broadcast operand rank too high");
    const auto& as = a.shape();
    const auto& bs = b.shape();
    for (std::size_t i = 0; i < bs.size(); ++i)
      PELTA_CHECK_MSG(bs[i] == as[as.size() - bs.size() + i],
                      "broadcast suffix mismatch " << to_string(as) << " vs " << to_string(bs));
    tensor out = a;
    const std::int64_t inner = b.numel();
    const std::int64_t outer = a.numel() / inner;
    auto po = out.data();
    auto pb = b.data();
    for (std::int64_t o = 0; o < outer; ++o)
      for (std::int64_t i = 0; i < inner; ++i)
        po[static_cast<std::size_t>(o * inner + i)] += pb[static_cast<std::size_t>(i)];
    return out;
  }

  std::vector<tensor> backward(const tensor& g, std::span<const tensor* const> in,
                               const tensor&) const override {
    const tensor& b = *in[1];
    tensor gb{b.shape()};
    const std::int64_t inner = b.numel();
    const std::int64_t outer = g.numel() / inner;
    auto pg = g.data();
    auto pgb = gb.data();
    for (std::int64_t o = 0; o < outer; ++o)
      for (std::int64_t i = 0; i < inner; ++i)
        pgb[static_cast<std::size_t>(i)] += pg[static_cast<std::size_t>(o * inner + i)];
    return {g, std::move(gb)};
  }
};

class mul_op final : public op {
public:
  std::string_view name() const override { return "mul"; }

  tensor forward(std::span<const tensor* const> in) override {
    PELTA_CHECK(in.size() == 2);
    return ops::mul(*in[0], *in[1]);
  }

  std::vector<tensor> backward(const tensor& g, std::span<const tensor* const> in,
                               const tensor&) const override {
    return {ops::mul(g, *in[1]), ops::mul(g, *in[0])};
  }
};

class scale_op final : public op {
public:
  explicit scale_op(float s) : s_{s} {}
  std::string_view name() const override { return "scale"; }

  tensor forward(std::span<const tensor* const> in) override {
    PELTA_CHECK(in.size() == 1);
    return ops::mul_scalar(*in[0], s_);
  }

  std::vector<tensor> backward(const tensor& g, std::span<const tensor* const>,
                               const tensor&) const override {
    return {ops::mul_scalar(g, s_)};
  }

private:
  float s_;
};

class affine_op final : public op {
public:
  affine_op(float scale, float shift) : scale_{scale}, shift_{shift} {}
  std::string_view name() const override { return "affine"; }

  float scale() const { return scale_; }
  float shift() const { return shift_; }

  tensor forward(std::span<const tensor* const> in) override {
    PELTA_CHECK(in.size() == 1);
    return ops::mul_scalar(ops::add_scalar(*in[0], shift_), scale_);
  }

  std::vector<tensor> backward(const tensor& g, std::span<const tensor* const>,
                               const tensor&) const override {
    return {ops::mul_scalar(g, scale_)};
  }

private:
  float scale_;
  float shift_;
};

class relu_op final : public op {
public:
  std::string_view name() const override { return "relu"; }

  tensor forward(std::span<const tensor* const> in) override {
    PELTA_CHECK(in.size() == 1);
    return ops::relu(*in[0]);
  }

  std::vector<tensor> backward(const tensor& g, std::span<const tensor* const> in,
                               const tensor&) const override {
    tensor gx{g.shape()};
    auto px = in[0]->data();
    auto pg = g.data();
    auto po = gx.data();
    // pg[i] is loaded unconditionally, so the ternary is a select, not a
    // branch, and the loop vectorises.
    for (std::size_t i = 0; i < po.size(); ++i) {
      const float gi = pg[i];
      po[i] = px[i] > 0.0f ? gi : 0.0f;
    }
    return {std::move(gx)};
  }
};

class gelu_op final : public op {
public:
  std::string_view name() const override { return "gelu"; }

  tensor forward(std::span<const tensor* const> in) override {
    PELTA_CHECK(in.size() == 1);
    tensor out{in[0]->shape()};
    auto px = in[0]->data();
    auto po = out.data();
    tanh_of_inner(px, po);
    for (std::size_t i = 0; i < po.size(); ++i) po[i] = 0.5f * px[i] * (1.0f + po[i]);
    return out;
  }

  std::vector<tensor> backward(const tensor& g, std::span<const tensor* const> in,
                               const tensor&) const override {
    tensor gx{g.shape()};
    auto px = in[0]->data();
    auto pg = g.data();
    auto po = gx.data();
    tanh_of_inner(px, po);
    for (std::size_t i = 0; i < po.size(); ++i) {
      const float x = px[i];
      const float t = po[i];
      const float du = k_sqrt_2_over_pi * (1.0f + 3.0f * 0.044715f * x * x);
      po[i] = pg[i] * (0.5f * (1.0f + t) + 0.5f * x * (1.0f - t * t) * du);
    }
    return {std::move(gx)};
  }

private:
  static constexpr float k_sqrt_2_over_pi = 0.7978845608f;

  // t[i] = tanh(sqrt(2/pi) * (x + 0.044715 x^3)), as one vector map.
  static void tanh_of_inner(std::span<const float> x, std::span<float> t) {
    for (std::size_t i = 0; i < t.size(); ++i)
      t[i] = k_sqrt_2_over_pi * (x[i] + 0.044715f * x[i] * x[i] * x[i]);
    fn::tanh(t.data(), t.data(), static_cast<std::int64_t>(t.size()));
  }
};

// Each last-dim row of t becomes softmax(scale · row), in place and
// numerically stabilized per row. The scaled row is what a scale op would
// have produced, so a softmax that folds its scale in keeps those bits.
void softmax_rows_(tensor& t, float scale) {
  PELTA_CHECK(t.ndim() >= 1);
  const std::int64_t last = t.size(-1);
  const std::int64_t rows = t.numel() / last;
  float* p = t.data().data();
  for (std::int64_t r = 0; r < rows; ++r) {
    float* row = p + r * last;
    for (std::int64_t c = 0; c < last; ++c) row[c] *= scale;
    float m = row[0];
    for (std::int64_t c = 1; c < last; ++c) m = std::max(m, row[c]);
    for (std::int64_t c = 0; c < last; ++c) row[c] -= m;
  }
  // One map over every row: short rows (17 tokens) would otherwise pay a
  // padded tail each, and an element's bits do not depend on its position.
  fn::exp(p, p, t.numel());
  for (std::int64_t r = 0; r < rows; ++r) {
    float* row = p + r * last;
    double z = 0.0;
    for (std::int64_t c = 0; c < last; ++c) z += row[c];
    const float inv = static_cast<float>(1.0 / z);
    for (std::int64_t c = 0; c < last; ++c) row[c] *= inv;
  }
}

// dL/dx of y = softmax(scale · x) over the last dim, from y and g = dL/dy.
tensor softmax_rows_backward(const tensor& g, const tensor& y, float scale) {
  const std::int64_t last = y.size(-1);
  const std::int64_t rows = y.numel() / last;
  tensor gx{y.shape()};
  auto ps = y.data();
  auto pg = g.data();
  auto po = gx.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* s = ps.data() + r * last;
    const float* gr = pg.data() + r * last;
    float* orow = po.data() + r * last;
    double dot = 0.0;
    for (std::int64_t c = 0; c < last; ++c) dot += static_cast<double>(gr[c]) * s[c];
    for (std::int64_t c = 0; c < last; ++c)
      orow[c] = s[c] * (gr[c] - static_cast<float>(dot)) * scale;
  }
  return gx;
}

class softmax_lastdim_op final : public op {
public:
  std::string_view name() const override { return "softmax"; }

  tensor forward(std::span<const tensor* const> in) override {
    PELTA_CHECK(in.size() == 1);
    tensor out = *in[0];
    softmax_rows_(out, 1.0f);
    return out;
  }

  std::vector<tensor> backward(const tensor& g, std::span<const tensor* const>,
                               const tensor& out) const override {
    return {softmax_rows_backward(g, out, 1.0f)};
  }
};

// softmax(scale · q·kᵀ), normalized in the buffer the product was written
// to: an attention block keeps one [B·H,T,T] tensor, not one each for the
// raw scores, the scaled scores and the weights.
class attention_weights_op final : public op {
public:
  explicit attention_weights_op(float scale) : scale_{scale} {}
  std::string_view name() const override { return "attention_weights"; }

  tensor forward(std::span<const tensor* const> in) override {
    PELTA_CHECK(in.size() == 2);
    tensor w = ops::bmm_bt(*in[0], *in[1]);
    softmax_rows_(w, scale_);
    return w;
  }

  std::vector<tensor> backward(const tensor& g, std::span<const tensor* const> in,
                               const tensor& out) const override {
    // d(scores) = scale · softmax'; dq = d(scores) k ; dk = (qᵀ d(scores))ᵀ
    const tensor gs = softmax_rows_backward(g, out, scale_);
    return {ops::bmm(gs, *in[1]),
            ops::transpose_last2(ops::bmm(ops::transpose_last2(*in[0]), gs))};
  }

private:
  float scale_;
};

class log_softmax_lastdim_op final : public op {
public:
  std::string_view name() const override { return "log_softmax"; }

  tensor forward(std::span<const tensor* const> in) override {
    PELTA_CHECK(in.size() == 1);
    const tensor& x = *in[0];
    const std::int64_t last = x.size(-1);
    const std::int64_t rows = x.numel() / last;
    tensor out{x.shape()};
    auto px = x.data();
    auto po = out.data();
    for (std::int64_t r = 0; r < rows; ++r) {
      const float* xr = px.data() + r * last;
      float* orow = po.data() + r * last;
      float m = xr[0];
      for (std::int64_t c = 1; c < last; ++c) m = std::max(m, xr[c]);
      for (std::int64_t c = 0; c < last; ++c) orow[c] = xr[c] - m;
      fn::exp(orow, orow, last);
      double z = 0.0;
      for (std::int64_t c = 0; c < last; ++c) z += orow[c];
      const float logz = m + static_cast<float>(std::log(z));
      for (std::int64_t c = 0; c < last; ++c) orow[c] = xr[c] - logz;
    }
    return out;
  }

  std::vector<tensor> backward(const tensor& g, std::span<const tensor* const>,
                               const tensor& out) const override {
    const std::int64_t last = out.size(-1);
    const std::int64_t rows = out.numel() / last;
    tensor gx{out.shape()};
    auto pl = out.data();
    auto pg = g.data();
    auto po = gx.data();
    fn::exp(pl.data(), po.data(), out.numel());  // softmax = exp(log-softmax)
    for (std::int64_t r = 0; r < rows; ++r) {
      const float* gr = pg.data() + r * last;
      float* orow = po.data() + r * last;
      double gsum = 0.0;
      for (std::int64_t c = 0; c < last; ++c) gsum += gr[c];
      for (std::int64_t c = 0; c < last; ++c)
        orow[c] = gr[c] - orow[c] * static_cast<float>(gsum);
    }
    return {std::move(gx)};
  }
};

}  // namespace

op_ptr make_add() { return std::make_unique<add_op>(); }
op_ptr make_add_broadcast() { return std::make_unique<add_broadcast_op>(); }
op_ptr make_mul() { return std::make_unique<mul_op>(); }
op_ptr make_scale(float s) { return std::make_unique<scale_op>(s); }
op_ptr make_affine(float scale, float shift) { return std::make_unique<affine_op>(scale, shift); }

bool affine_params_of(const op& o, float* scale, float* shift) {
  const auto* p = dynamic_cast<const affine_op*>(&o);
  if (p == nullptr) return false;
  *scale = p->scale();
  *shift = p->shift();
  return true;
}
op_ptr make_relu() { return std::make_unique<relu_op>(); }
op_ptr make_gelu() { return std::make_unique<gelu_op>(); }
op_ptr make_softmax_lastdim() { return std::make_unique<softmax_lastdim_op>(); }
op_ptr make_attention_weights(float scale) {
  return std::make_unique<attention_weights_op>(scale);
}
op_ptr make_log_softmax_lastdim() { return std::make_unique<log_softmax_lastdim_op>(); }

}  // namespace pelta::ad
