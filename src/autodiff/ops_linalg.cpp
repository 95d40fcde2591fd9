#include "autodiff/ops_linalg.h"

#include "tensor/ops.h"

namespace pelta::ad {

namespace {

class matmul_op final : public op {
public:
  std::string_view name() const override { return "matmul"; }

  tensor forward(std::span<const tensor* const> in) override {
    PELTA_CHECK(in.size() == 2);
    return ops::matmul(*in[0], *in[1]);
  }

  std::vector<tensor> backward(const tensor& g, std::span<const tensor* const> in,
                               const tensor&) const override {
    // dA = g Bᵀ ; dB = Aᵀ g
    return {ops::matmul(g, ops::transpose2d(*in[1])), ops::matmul(ops::transpose2d(*in[0]), g)};
  }
};

class bmm_op final : public op {
public:
  std::string_view name() const override { return "bmm"; }

  tensor forward(std::span<const tensor* const> in) override {
    PELTA_CHECK(in.size() == 2);
    return ops::bmm(*in[0], *in[1]);
  }

  std::vector<tensor> backward(const tensor& g, std::span<const tensor* const> in,
                               const tensor&) const override {
    // dA = g Bᵀ ; dB = Aᵀ g
    return {ops::bmm_bt(g, *in[1]), ops::bmm(ops::transpose_last2(*in[0]), g)};
  }
};

class transpose_last2_op final : public op {
public:
  std::string_view name() const override { return "transpose"; }

  tensor forward(std::span<const tensor* const> in) override {
    PELTA_CHECK(in.size() == 1);
    return ops::transpose_last2(*in[0]);
  }

  std::vector<tensor> backward(const tensor& g, std::span<const tensor* const>,
                               const tensor&) const override {
    return {ops::transpose_last2(g)};
  }
};

class reshape_op final : public op {
public:
  explicit reshape_op(shape_t s) : new_shape_{std::move(s)} {}
  std::string_view name() const override { return "reshape"; }

  tensor forward(std::span<const tensor* const> in) override {
    PELTA_CHECK(in.size() == 1);
    return in[0]->reshape(new_shape_);
  }

  std::vector<tensor> backward(const tensor& g, std::span<const tensor* const> in,
                               const tensor&) const override {
    return {g.reshape(in[0]->shape())};
  }

  const shape_t& target_shape() const { return new_shape_; }

private:
  shape_t new_shape_;
};

class slice_lastdim_op final : public op {
public:
  slice_lastdim_op(std::int64_t start, std::int64_t len) : start_{start}, len_{len} {
    PELTA_CHECK(start >= 0 && len > 0);
  }
  std::string_view name() const override { return "slice_lastdim"; }

  tensor forward(std::span<const tensor* const> in) override {
    PELTA_CHECK(in.size() == 1);
    const tensor& x = *in[0];
    const std::int64_t last = x.size(-1);
    PELTA_CHECK_MSG(start_ + len_ <= last, "slice [" << start_ << ", " << start_ + len_
                                                     << ") exceeds last dim " << last);
    shape_t os = x.shape();
    os.back() = len_;
    tensor out{os};
    const std::int64_t rows = x.numel() / last;
    auto px = x.data();
    auto po = out.data();
    for (std::int64_t r = 0; r < rows; ++r)
      for (std::int64_t c = 0; c < len_; ++c)
        po[static_cast<std::size_t>(r * len_ + c)] =
            px[static_cast<std::size_t>(r * last + start_ + c)];
    return out;
  }

  std::vector<tensor> backward(const tensor& g, std::span<const tensor* const> in,
                               const tensor&) const override {
    const tensor& x = *in[0];
    const std::int64_t last = x.size(-1);
    tensor gx{x.shape()};
    const std::int64_t rows = x.numel() / last;
    auto pg = g.data();
    auto po = gx.data();
    for (std::int64_t r = 0; r < rows; ++r)
      for (std::int64_t c = 0; c < len_; ++c)
        po[static_cast<std::size_t>(r * last + start_ + c)] =
            pg[static_cast<std::size_t>(r * len_ + c)];
    return {std::move(gx)};
  }

private:
  std::int64_t start_;
  std::int64_t len_;
};

class concat_lastdim_op final : public op {
public:
  std::string_view name() const override { return "concat_lastdim"; }

  tensor forward(std::span<const tensor* const> in) override {
    PELTA_CHECK_MSG(in.size() >= 2, "concat needs >= 2 parents");
    const shape_t lead{in[0]->shape().begin(), in[0]->shape().end() - 1};
    std::int64_t total_last = 0;
    for (const tensor* t : in) {
      PELTA_CHECK_MSG(shape_t(t->shape().begin(), t->shape().end() - 1) == lead,
                      "concat leading-shape mismatch");
      total_last += t->size(-1);
    }
    shape_t os = in[0]->shape();
    os.back() = total_last;
    tensor out{os};
    const std::int64_t rows = numel_of(lead);
    auto po = out.data();
    std::int64_t col0 = 0;
    for (const tensor* t : in) {
      const std::int64_t last = t->size(-1);
      auto pt = t->data();
      for (std::int64_t r = 0; r < rows; ++r)
        for (std::int64_t c = 0; c < last; ++c)
          po[static_cast<std::size_t>(r * total_last + col0 + c)] =
              pt[static_cast<std::size_t>(r * last + c)];
      col0 += last;
    }
    return out;
  }

  std::vector<tensor> backward(const tensor& g, std::span<const tensor* const> in,
                               const tensor& out) const override {
    const std::int64_t total_last = out.size(-1);
    const std::int64_t rows = out.numel() / total_last;
    std::vector<tensor> grads;
    grads.reserve(in.size());
    auto pg = g.data();
    std::int64_t col0 = 0;
    for (const tensor* t : in) {
      const std::int64_t last = t->size(-1);
      tensor gt{t->shape()};
      auto po = gt.data();
      for (std::int64_t r = 0; r < rows; ++r)
        for (std::int64_t c = 0; c < last; ++c)
          po[static_cast<std::size_t>(r * last + c)] =
              pg[static_cast<std::size_t>(r * total_last + col0 + c)];
      col0 += last;
      grads.push_back(std::move(gt));
    }
    return grads;
  }
};

class prepend_token_op final : public op {
public:
  std::string_view name() const override { return "prepend_token"; }

  tensor forward(std::span<const tensor* const> in) override {
    PELTA_CHECK(in.size() == 2);
    const tensor& token = *in[0];
    const tensor& tokens = *in[1];
    PELTA_CHECK_MSG(token.ndim() == 1 && tokens.ndim() == 3 && token.size(0) == tokens.size(2),
                    "prepend_token shapes " << to_string(token.shape()) << ", "
                                            << to_string(tokens.shape()));
    const std::int64_t b = tokens.size(0), t = tokens.size(1), d = tokens.size(2);
    tensor out{shape_t{b, t + 1, d}};
    for (std::int64_t n = 0; n < b; ++n) {
      for (std::int64_t c = 0; c < d; ++c) out.at(n, 0, c) = token[c];
      for (std::int64_t r = 0; r < t; ++r)
        for (std::int64_t c = 0; c < d; ++c) out.at(n, r + 1, c) = tokens.at(n, r, c);
    }
    return out;
  }

  std::vector<tensor> backward(const tensor& g, std::span<const tensor* const> in,
                               const tensor&) const override {
    const tensor& token = *in[0];
    const tensor& tokens = *in[1];
    const std::int64_t b = tokens.size(0), t = tokens.size(1), d = tokens.size(2);
    tensor g_token{token.shape()};
    tensor g_tokens{tokens.shape()};
    for (std::int64_t n = 0; n < b; ++n) {
      for (std::int64_t c = 0; c < d; ++c) g_token[c] += g.at(n, 0, c);
      for (std::int64_t r = 0; r < t; ++r)
        for (std::int64_t c = 0; c < d; ++c) g_tokens.at(n, r, c) = g.at(n, r + 1, c);
    }
    return {std::move(g_token), std::move(g_tokens)};
  }
};

class slice_row_op final : public op {
public:
  explicit slice_row_op(std::int64_t t) : t_{t} { PELTA_CHECK(t >= 0); }
  std::string_view name() const override { return "slice_row"; }

  tensor forward(std::span<const tensor* const> in) override {
    PELTA_CHECK(in.size() == 1);
    const tensor& x = *in[0];
    PELTA_CHECK_MSG(x.ndim() == 3 && t_ < x.size(1), "slice_row " << t_ << " on "
                                                                  << to_string(x.shape()));
    const std::int64_t b = x.size(0), d = x.size(2);
    tensor out{shape_t{b, d}};
    for (std::int64_t n = 0; n < b; ++n)
      for (std::int64_t c = 0; c < d; ++c) out.at(n, c) = x.at(n, t_, c);
    return out;
  }

  std::vector<tensor> backward(const tensor& g, std::span<const tensor* const> in,
                               const tensor&) const override {
    const tensor& x = *in[0];
    tensor gx{x.shape()};
    const std::int64_t b = x.size(0), d = x.size(2);
    for (std::int64_t n = 0; n < b; ++n)
      for (std::int64_t c = 0; c < d; ++c) gx.at(n, t_, c) = g.at(n, c);
    return {std::move(gx)};
  }

private:
  std::int64_t t_;
};

}  // namespace

op_ptr make_matmul() { return std::make_unique<matmul_op>(); }
op_ptr make_bmm() { return std::make_unique<bmm_op>(); }
op_ptr make_transpose_last2() { return std::make_unique<transpose_last2_op>(); }
op_ptr make_reshape(shape_t new_shape) { return std::make_unique<reshape_op>(std::move(new_shape)); }

const shape_t* reshape_shape_of(const op& o) {
  const auto* r = dynamic_cast<const reshape_op*>(&o);
  return r != nullptr ? &r->target_shape() : nullptr;
}
op_ptr make_slice_lastdim(std::int64_t start, std::int64_t len) {
  return std::make_unique<slice_lastdim_op>(start, len);
}
op_ptr make_concat_lastdim() { return std::make_unique<concat_lastdim_op>(); }
op_ptr make_prepend_token() { return std::make_unique<prepend_token_op>(); }
op_ptr make_slice_row(std::int64_t t) { return std::make_unique<slice_row_op>(t); }

}  // namespace pelta::ad
