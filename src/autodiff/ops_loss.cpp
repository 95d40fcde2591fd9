#include "autodiff/ops_loss.h"

#include <cmath>

#include "tensor/mathfn.h"

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

}  // namespace

op_ptr make_cross_entropy() { return std::make_unique<cross_entropy_op>(); }

}  // namespace pelta::ad
