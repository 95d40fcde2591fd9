#include "autodiff/ops_linalg.h"

#include <algorithm>

#include "tensor/ops.h"

namespace pelta::ad {

namespace {

// Rows of x viewed as a [rows, In] matrix: the product of its leading dims.
std::int64_t rows_of(const tensor& x) {
  return numel_of(shape_t(x.shape().begin(), x.shape().end() - 1));
}

// x [..., In] x W [In, Out] (+ b [Out]) -> [..., Out]: every leading dim
// folds into the rows of one contiguous [rows, In] matrix, so the GEMMs run
// on the tensors' storage directly, whatever the input's rank.
class linear_op final : public op {
public:
  explicit linear_op(bool with_bias) : with_bias_{with_bias} {}
  std::string_view name() const override { return "linear"; }

  tensor forward(std::span<const tensor* const> in) override {
    PELTA_CHECK(in.size() == (with_bias_ ? 3u : 2u));
    const tensor& x = *in[0];
    const tensor& w = *in[1];
    PELTA_CHECK_MSG(x.ndim() >= 1 && w.ndim() == 2 && x.size(x.ndim() - 1) == w.size(0),
                    "linear shapes " << to_string(x.shape()) << " x " << to_string(w.shape()));
    const std::int64_t d = w.size(1), rows = rows_of(x);
    shape_t out_shape = x.shape();
    out_shape.back() = d;
    tensor out{out_shape};
    float* po = out.data().data();
    ops::matmul_accumulate(x.data().data(), w.data().data(), po, rows, w.size(0), d);
    if (with_bias_) {
      // After the GEMM, never as its accumulation base: x·w + b rounds
      // differently from b + x·w.
      const tensor& bias = *in[2];
      PELTA_CHECK(bias.numel() == d);
      const float* pb = bias.data().data();
      for (std::int64_t r = 0; r < rows; ++r, po += d)
        for (std::int64_t c = 0; c < d; ++c) po[c] += pb[c];
    }
    return out;
  }

  std::vector<tensor> backward(const tensor& g, std::span<const tensor* const> in,
                               const tensor&) const override {
    const tensor& x = *in[0];
    const tensor& w = *in[1];
    const std::int64_t p = w.size(0), d = w.size(1), rows = rows_of(x);
    PELTA_CHECK(g.numel() == rows * d);
    const float* pg = g.data().data();
    std::vector<tensor> grads;
    // dX = g wᵀ, against w's own [In, Out] storage.
    tensor gx{x.shape()};
    ops::matmul_accumulate(pg, w.data().data(), gx.data().data(), rows, d, p,
                           /*b_transposed=*/true);
    grads.push_back(std::move(gx));
    // dW = xᵀ g.
    tensor xt{shape_t{p, rows}};
    ops::transpose_into(x.data().data(), xt.data().data(), rows, p);
    tensor gw{w.shape()};
    ops::matmul_accumulate(xt.data().data(), pg, gw.data().data(), p, rows, d);
    grads.push_back(std::move(gw));
    if (with_bias_) {
      tensor gb{shape_t{d}};
      float* pgb = gb.data().data();
      for (std::int64_t r = 0; r < rows; ++r, pg += d)
        for (std::int64_t c = 0; c < d; ++c) pgb[c] += pg[c];
      grads.push_back(std::move(gb));
    }
    return grads;
  }

private:
  bool with_bias_;
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

// Moves each dh-float head row between the token layout [B,T,H·dh], where
// (b,t,h) starts at ((b·T+t)·H+h)·dh, and the head layout [B·H,T,dh], where
// it starts at ((b·H+h)·T+t)·dh.
class heads_op final : public op {
public:
  heads_op(std::int64_t heads, bool split) : heads_{heads}, split_{split} {
    PELTA_CHECK(heads > 0);
  }
  std::string_view name() const override { return split_ ? "split_heads" : "merge_heads"; }

  tensor forward(std::span<const tensor* const> in) override {
    PELTA_CHECK(in.size() == 1);
    return move_heads(*in[0], split_);
  }

  std::vector<tensor> backward(const tensor& g, std::span<const tensor* const>,
                               const tensor&) const override {
    return {move_heads(g, !split_)};
  }

private:
  tensor move_heads(const tensor& x, bool split) const {
    PELTA_CHECK_MSG(x.ndim() == 3 && (split ? x.size(2) : x.size(0)) % heads_ == 0,
                    (split ? "split_heads" : "merge_heads")
                        << " of " << to_string(x.shape()) << " into " << heads_ << " heads");
    const std::int64_t b = split ? x.size(0) : x.size(0) / heads_, t = x.size(1);
    const std::int64_t dh = split ? x.size(2) / heads_ : x.size(2);
    tensor out{split ? shape_t{b * heads_, t, dh} : shape_t{b, t, heads_ * dh}};
    const float* px = x.data().data();
    float* po = out.data().data();
    for (std::int64_t n = 0; n < b; ++n)
      for (std::int64_t r = 0; r < t; ++r)
        for (std::int64_t h = 0; h < heads_; ++h) {
          const std::int64_t tok = ((n * t + r) * heads_ + h) * dh;
          const std::int64_t head = ((n * heads_ + h) * t + r) * dh;
          std::copy_n(px + (split ? tok : head), dh, po + (split ? head : tok));
        }
    return out;
  }

  std::int64_t heads_;
  bool split_;
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

op_ptr make_linear(bool with_bias) { return std::make_unique<linear_op>(with_bias); }
op_ptr make_bmm() { return std::make_unique<bmm_op>(); }
op_ptr make_reshape(shape_t new_shape) { return std::make_unique<reshape_op>(std::move(new_shape)); }

const shape_t* reshape_shape_of(const op& o) {
  const auto* r = dynamic_cast<const reshape_op*>(&o);
  return r != nullptr ? &r->target_shape() : nullptr;
}
op_ptr make_split_heads(std::int64_t heads) { return std::make_unique<heads_op>(heads, true); }
op_ptr make_merge_heads(std::int64_t heads) { return std::make_unique<heads_op>(heads, false); }
op_ptr make_prepend_token() { return std::make_unique<prepend_token_op>(); }
op_ptr make_slice_row(std::int64_t t) { return std::make_unique<slice_row_op>(t); }

}  // namespace pelta::ad
