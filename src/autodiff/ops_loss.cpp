#include "autodiff/ops_loss.h"

#include <cmath>

#include "tensor/mathfn.h"
#include "tensor/ops.h"

namespace pelta::ad {

namespace {

class cross_entropy_op final : public op {
public:
  std::string_view name() const override { return "cross_entropy"; }

  tensor forward(std::span<const tensor* const> in) override {
    PELTA_CHECK(in.size() == 2);
    const tensor& logits = *in[0];
    const tensor& labels = *in[1];
    PELTA_CHECK_MSG(logits.ndim() == 2, "cross_entropy logits " << to_string(logits.shape()));
    const std::int64_t b = logits.size(0), c = logits.size(1);
    PELTA_CHECK_MSG(labels.numel() == b, "cross_entropy labels " << to_string(labels.shape()));

    softmax_ = tensor{logits.shape()};
    double loss = 0.0;
    for (std::int64_t n = 0; n < b; ++n) {
      const std::int64_t y = static_cast<std::int64_t>(labels[n]);
      PELTA_CHECK_MSG(y >= 0 && y < c, "label " << y << " out of range " << c);
      float m = logits.at(n, 0);
      for (std::int64_t j = 1; j < c; ++j) m = std::max(m, logits.at(n, j));
      // The softmax row doubles as scratch for the float exp(logit - max).
      float* srow = softmax_.data().data() + n * c;
      for (std::int64_t j = 0; j < c; ++j) srow[j] = logits.at(n, j) - m;
      fn::exp(srow, srow, c);
      double z = 0.0;
      for (std::int64_t j = 0; j < c; ++j) z += srow[j];
      const double logz = m + std::log(z);
      for (std::int64_t j = 0; j < c; ++j) {
        // pelta-lint: allow(R7) the normalised softmax is a double exp on purpose
        srow[j] = static_cast<float>(std::exp(logits.at(n, j) - logz));
      }
      loss += logz - logits.at(n, y);
    }
    return tensor::scalar(static_cast<float>(loss / static_cast<double>(b)));
  }

  std::vector<tensor> backward(const tensor& g, std::span<const tensor* const> in,
                               const tensor&) const override {
    const tensor& logits = *in[0];
    const tensor& labels = *in[1];
    const std::int64_t b = logits.size(0), c = logits.size(1);
    const float scale = g.item() / static_cast<float>(b);
    tensor dl{logits.shape()};
    for (std::int64_t n = 0; n < b; ++n) {
      const std::int64_t y = static_cast<std::int64_t>(labels[n]);
      for (std::int64_t j = 0; j < c; ++j)
        dl.at(n, j) = scale * (softmax_.at(n, j) - (j == y ? 1.0f : 0.0f));
    }
    return {std::move(dl), tensor{labels.shape()}};
  }

private:
  tensor softmax_;
};

class linear_op final : public op {
public:
  explicit linear_op(bool with_bias) : with_bias_{with_bias} {}
  std::string_view name() const override { return "linear"; }

  tensor forward(std::span<const tensor* const> in) override {
    PELTA_CHECK(in.size() == (with_bias_ ? 3u : 2u));
    const tensor& x = *in[0];
    const tensor& w = *in[1];
    PELTA_CHECK_MSG(x.ndim() == 2 && w.ndim() == 2 && x.size(1) == w.size(0),
                    "linear shapes " << to_string(x.shape()) << " x " << to_string(w.shape()));
    tensor out = ops::matmul(x, w);
    if (with_bias_) {
      const tensor& bias = *in[2];
      PELTA_CHECK(bias.numel() == w.size(1));
      for (std::int64_t r = 0; r < out.size(0); ++r)
        for (std::int64_t c = 0; c < out.size(1); ++c) out.at(r, c) += bias[c];
    }
    return out;
  }

  std::vector<tensor> backward(const tensor& g, std::span<const tensor* const> in,
                               const tensor&) const override {
    const tensor& x = *in[0];
    const tensor& w = *in[1];
    std::vector<tensor> grads;
    grads.push_back(ops::matmul(g, ops::transpose2d(w)));
    grads.push_back(ops::matmul(ops::transpose2d(x), g));
    if (with_bias_) {
      tensor gb{shape_t{w.size(1)}};
      for (std::int64_t r = 0; r < g.size(0); ++r)
        for (std::int64_t c = 0; c < g.size(1); ++c) gb[c] += g.at(r, c);
      grads.push_back(std::move(gb));
    }
    return grads;
  }

private:
  bool with_bias_;
};

}  // namespace

op_ptr make_cross_entropy() { return std::make_unique<cross_entropy_op>(); }
op_ptr make_linear(bool with_bias) { return std::make_unique<linear_op>(with_bias); }

}  // namespace pelta::ad
