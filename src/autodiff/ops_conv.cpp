#include "autodiff/ops_conv.h"

#include "tensor/conv.h"
#include "tensor/ops.h"

namespace pelta::ad {

namespace {

class conv2d_op final : public op {
public:
  conv2d_op(std::int64_t stride, std::int64_t pad, bool with_bias)
      : stride_{stride}, pad_{pad}, with_bias_{with_bias} {
    PELTA_CHECK(stride >= 1 && pad >= 0);
  }
  std::string_view name() const override { return "conv2d"; }

  tensor forward(std::span<const tensor* const> in) override {
    PELTA_CHECK(in.size() == (with_bias_ ? 3u : 2u));
    static const tensor no_bias{shape_t{0}};
    return ops::conv2d(*in[0], *in[1], with_bias_ ? *in[2] : no_bias, stride_, pad_);
  }

  std::vector<tensor> backward(const tensor& g, std::span<const tensor* const> in,
                               const tensor&) const override {
    std::vector<tensor> grads;
    grads.push_back(ops::conv2d_backward_input(g, *in[1], stride_, pad_, in[0]->shape()));
    grads.push_back(ops::conv2d_backward_weight(g, *in[0], stride_, pad_, in[1]->shape()));
    if (with_bias_) grads.push_back(ops::conv2d_backward_bias(g));
    return grads;
  }

  std::int64_t stride() const { return stride_; }
  std::int64_t pad() const { return pad_; }

private:
  std::int64_t stride_;
  std::int64_t pad_;
  bool with_bias_;
};

class maxpool_op final : public op {
public:
  std::string_view name() const override { return "maxpool2x2"; }

  tensor forward(std::span<const tensor* const> in) override {
    PELTA_CHECK(in.size() == 1);
    auto r = ops::maxpool2x2(*in[0]);
    indices_ = std::move(r.indices);
    return std::move(r.output);
  }

  std::vector<tensor> backward(const tensor& g, std::span<const tensor* const> in,
                               const tensor&) const override {
    return {ops::maxpool2x2_backward(g, indices_, in[0]->shape())};
  }

private:
  tensor indices_;
};

class global_avgpool_op final : public op {
public:
  std::string_view name() const override { return "global_avgpool"; }

  tensor forward(std::span<const tensor* const> in) override {
    PELTA_CHECK(in.size() == 1);
    return ops::global_avgpool(*in[0]);
  }

  std::vector<tensor> backward(const tensor& g, std::span<const tensor* const> in,
                               const tensor&) const override {
    return {ops::global_avgpool_backward(g, in[0]->shape())};
  }
};

class patchify_op final : public op {
public:
  explicit patchify_op(std::int64_t ps) : ps_{ps} { PELTA_CHECK(ps >= 1); }
  std::string_view name() const override { return "patchify"; }

  tensor forward(std::span<const tensor* const> in) override {
    PELTA_CHECK(in.size() == 1);
    const tensor& x = *in[0];
    PELTA_CHECK_MSG(x.ndim() == 4, "patchify input " << to_string(x.shape()));
    const std::int64_t h = x.size(2), w = x.size(3);
    PELTA_CHECK_MSG(h % ps_ == 0 && w % ps_ == 0,
                    "patch size " << ps_ << " does not divide " << to_string(x.shape()));
    const std::int64_t t = (h / ps_) * (w / ps_), p = x.size(1) * ps_ * ps_;
    tensor out{shape_t{x.size(0), t, p}};
    const float* px = x.data().data();
    float* po = out.data().data();
    walk(x.shape(), [px, po](std::int64_t img, std::int64_t patch) { po[patch] = px[img]; });
    return out;
  }

  std::vector<tensor> backward(const tensor& g, std::span<const tensor* const> in,
                               const tensor&) const override {
    tensor gx{in[0]->shape()};
    PELTA_CHECK(g.numel() == gx.numel());
    const float* pg = g.data().data();
    float* pgx = gx.data().data();
    walk(gx.shape(), [pg, pgx](std::int64_t img, std::int64_t patch) { pgx[img] = pg[patch]; });
    return {std::move(gx)};
  }

private:
  // Calls f(image_offset, patch_offset) for every element of an NCHW image
  // batch of shape `s` and its [B, T, C*ps*ps] patch row, in patch-row order.
  template <class F>
  void walk(const shape_t& s, const F& f) const {
    const std::int64_t b = s[0], c = s[1], h = s[2], w = s[3];
    const std::int64_t ph = h / ps_, pw = w / ps_;
    std::int64_t patch = 0;
    for (std::int64_t n = 0; n < b; ++n)
      for (std::int64_t py = 0; py < ph; ++py)
        for (std::int64_t px = 0; px < pw; ++px)
          for (std::int64_t ci = 0; ci < c; ++ci)
            for (std::int64_t dy = 0; dy < ps_; ++dy) {
              const std::int64_t row = ((n * c + ci) * h + py * ps_ + dy) * w + px * ps_;
              for (std::int64_t dx = 0; dx < ps_; ++dx) f(row + dx, patch++);
            }
  }

  std::int64_t ps_;
};

}  // namespace

op_ptr make_conv2d(std::int64_t stride, std::int64_t pad, bool with_bias) {
  return std::make_unique<conv2d_op>(stride, pad, with_bias);
}

bool conv2d_geometry_of(const op& o, std::int64_t* stride, std::int64_t* pad) {
  const auto* c = dynamic_cast<const conv2d_op*>(&o);
  if (c == nullptr) return false;
  *stride = c->stride();
  *pad = c->pad();
  return true;
}
op_ptr make_maxpool2x2() { return std::make_unique<maxpool_op>(); }
op_ptr make_global_avgpool() { return std::make_unique<global_avgpool_op>(); }
op_ptr make_patchify(std::int64_t patch_size) { return std::make_unique<patchify_op>(patch_size); }

}  // namespace pelta::ad
