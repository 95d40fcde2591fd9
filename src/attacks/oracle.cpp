#include "attacks/oracle.h"

#include <cmath>

#include "autodiff/ops_loss.h"
#include "shield/baselines.h"
#include "shield/policy.h"
#include "tensor/conv.h"
#include "tensor/ops.h"

namespace pelta::attacks {

namespace {

shape_t batched(const tensor& image) {
  PELTA_CHECK_MSG(image.ndim() == 3, "oracles expect a single [C,H,W] image");
  return shape_t{1, image.size(0), image.size(1), image.size(2)};
}

// The forward pass, seeded backward and result assembly shared by every
// oracle over a local model copy. Subclasses decide only what the attacker
// can read as ∇ₓ from the back-propagated graph.
class model_oracle : public gradient_oracle {
public:
  oracle_result query(const tensor& image, std::int64_t label) final {
    return run_pass(image, label, nullptr);
  }

  oracle_result query_logit_seed(const tensor& image, const tensor& seed) final {
    return run_pass(image, -1, &seed);
  }

  tensor attention_saliency(const tensor& image) final {
    // Attention blocks are deep (clear) — rollout stays available to the
    // attacker even under the shield.
    models::forward_pass fp = model_->forward(image.reshape(batched(image)), ad::norm_mode::eval);
    return attention_rollout(*model_, fp.graph, image.shape());
  }

protected:
  explicit model_oracle(const models::model& m) : model_{&m} {}

  /// The input gradient the attacker reads after the device back-propagated
  /// the full graph of `fp`, reshaped to `image_shape`.
  virtual tensor read_gradient(const models::forward_pass& fp, const shape_t& image_shape) = 0;

  const models::model& model() const { return *model_; }

private:
  // When `label` >= 0 the objective is cross-entropy at that label;
  // otherwise `seed` is applied to the logits directly.
  oracle_result run_pass(const tensor& image, std::int64_t label, const tensor* seed) {
    models::forward_pass fp =
        model_->forward(image.reshape(batched(image)), ad::norm_mode::eval);
    const tensor& logits2d = fp.graph.value(fp.logits);
    oracle_result r;
    r.logits = logits2d.reshape({logits2d.size(1)});
    r.predicted = ops::argmax(r.logits);

    if (label >= 0) {
      const ad::node_id labels =
          fp.graph.add_constant(tensor{shape_t{1}, {static_cast<float>(label)}});
      const ad::node_id loss =
          fp.graph.add_transform(ad::make_cross_entropy(), {fp.logits, labels}, "atk_loss");
      r.loss = fp.graph.value(loss).item();
      fp.graph.backward(loss);
    } else {
      PELTA_CHECK(seed != nullptr && seed->numel() == r.logits.numel());
      r.loss = ops::dot(*seed, r.logits);
      fp.graph.backward_from(fp.logits, seed->reshape(logits2d.shape()));
    }
    ++queries_;
    r.gradient = read_gradient(fp, image.shape());
    return r;
  }

  const models::model* model_;
};

class clear_oracle final : public model_oracle {
public:
  explicit clear_oracle(const models::model& m) : model_oracle{m} {}

private:
  tensor read_gradient(const models::forward_pass& fp, const shape_t& image_shape) override {
    return fp.graph.adjoint(fp.input).reshape(image_shape);
  }
};

// conv2d's weight [C, C', KH, KW] for the transposed convolution with kernel
// k [C', C, KH, KW]: dims 0/1 swapped, taps reversed.
tensor flip_kernel(const tensor& k) {
  const std::int64_t cp = k.size(0), c = k.size(1), kh = k.size(2), kw = k.size(3);
  tensor f{shape_t{c, cp, kh, kw}};
  for (std::int64_t o = 0; o < cp; ++o)
    for (std::int64_t i = 0; i < c; ++i)
      for (std::int64_t y = 0; y < kh; ++y)
        for (std::int64_t x = 0; x < kw; ++x) f.at(i, o, kh - 1 - y, kw - 1 - x) = k.at(o, i, y, x);
  return f;
}

// Random-uniform initialized transposed-convolution upsampler lifting the
// clear-layer adjoint δ_{L+1} back to image shape (§V-B). The transposed
// convolution with kernel K [C', C, KH, KW] runs on the GEMM-backed kernels,
// and every route adds an output pixel's terms in the order of a direct
// scatter (input channel, then input position), so the lift's bits are the
// direct transposed convolution's.
class adjoint_upsampler {
public:
  tensor apply(const tensor& delta, const shape_t& image_shape, rng& gen) {
    const std::int64_t img_c = image_shape[0], img_h = image_shape[1], img_w = image_shape[2];
    const shape_t lifted{1, img_c, img_h, img_w};
    if (delta.ndim() == 3) {
      // Token adjoint [1, T(+1), D] (ViT): drop the class token when
      // present, arrange the patch tokens on their grid as a channels-first
      // feature map, then transposed-convolve with stride = patch size.
      std::int64_t t = delta.size(1);
      const std::int64_t d = delta.size(2);
      std::int64_t first_row = 0;
      std::int64_t grid = static_cast<std::int64_t>(std::llround(std::sqrt(static_cast<double>(t))));
      if (grid * grid != t) {
        grid = static_cast<std::int64_t>(std::llround(std::sqrt(static_cast<double>(t - 1))));
        PELTA_CHECK_MSG(grid * grid == t - 1, "non-square token grid " << t);
        first_row = 1;
        t -= 1;
      }
      const std::int64_t ps = img_h / grid;
      PELTA_CHECK_MSG(ps * grid == img_h && img_h == img_w, "token grid incompatible with image");
      const tensor& k = ensure_kernel(gen, {d, img_c, ps, ps}, layout::drawn);
      tensor grid_map{shape_t{1, d, grid, grid}};
      for (std::int64_t tok = 0; tok < t; ++tok)
        for (std::int64_t c = 0; c < d; ++c)
          grid_map.at(0, c, tok / grid, tok % grid) = delta.at(0, tok + first_row, c);
      return ops::conv2d_backward_input(grid_map, k, ps, 0, lifted).reshape(image_shape);
    }
    if (delta.ndim() == 2) {
      // Dense adjoint [1, D] (plain DNN, §III): random linear lift to pixel
      // space — the dense analogue of the transposed convolution, δ times a
      // kernel whose D rows each span the whole image.
      PELTA_CHECK_MSG(delta.size(0) == 1, "unexpected adjoint shape " << to_string(delta.shape()));
      const tensor& k = ensure_kernel(gen, {delta.size(1), img_c, img_h, img_w}, layout::rows);
      return ops::matmul(delta, k).reshape(image_shape);
    }
    PELTA_CHECK_MSG(delta.ndim() == 4 && delta.size(0) == 1,
                    "unexpected adjoint shape " << to_string(delta.shape()));
    // Spatial adjoint [1, C', h, w] (ResNet/BiT).
    const std::int64_t h = delta.size(2);
    if (h == img_h) {
      // 3x3, stride 1, pad 1: conv2d over the flipped kernel, whose
      // (ci, ky, kx) k-order is the scatter's (ci, y, x) order per pixel.
      const tensor& k = ensure_kernel(gen, {delta.size(1), img_c, 3, 3}, layout::flipped);
      return ops::conv2d(delta, k, tensor{shape_t{0}}, 1, 1).reshape(image_shape);
    }
    const std::int64_t s = img_h / h;
    PELTA_CHECK_MSG(s * h == img_h, "adjoint spatial size incompatible with image");
    const tensor& k = ensure_kernel(gen, {delta.size(1), img_c, s, s}, layout::drawn);
    return ops::conv2d_backward_input(delta, k, s, 0, lifted).reshape(image_shape);
  }

  void invalidate() { drawn_.clear(); }

private:
  // How a route reads K [C', C, KH, KW].
  enum class layout {
    drawn,    // conv2d_backward_input's weight, as drawn
    flipped,  // conv2d's weight: flip_kernel(K)
    rows,     // matmul's right operand [C', C·KH·KW]
  };

  // Draws K at `shape` unless the cached kernel was drawn there for the same
  // route, and lays it out once per draw, not per query.
  const tensor& ensure_kernel(rng& gen, const shape_t& shape, layout l) {
    if (drawn_ == shape && layout_ == l) return kernel_;
    const std::int64_t fan = shape[0] * shape[2] * shape[3];
    const float a = 1.0f / std::sqrt(static_cast<float>(fan));
    // The draw fills the values in order whatever the shape, so the rows
    // layout is drawn in place.
    kernel_ = tensor::rand_uniform(
        gen, l == layout::rows ? shape_t{shape[0], shape[1] * shape[2] * shape[3]} : shape, -a,
        a);
    if (l == layout::flipped) kernel_ = flip_kernel(kernel_);
    drawn_ = shape;
    layout_ = l;
    return kernel_;
  }

  shape_t drawn_;
  layout layout_ = layout::drawn;
  tensor kernel_;
};

class shielded_oracle final : public model_oracle {
public:
  /// depth == 0: the model's paper (§V-A) frontier; depth > 0: mask the
  /// first `depth` input-dependent transforms (ablation).
  shielded_oracle(const models::model& m, std::uint64_t kernel_seed, tee::enclave* enclave,
                  std::int64_t depth = 0)
      : model_oracle{m}, gen_{kernel_seed}, enclave_{enclave}, depth_{depth} {}

  void reset(rng& gen) override {
    gen_ = rng{gen.next_u64()};
    upsampler_.invalidate();
  }

private:
  tensor read_gradient(const models::forward_pass& fp, const shape_t& image_shape) override {
    // The device back-propagated the full graph; PELTA now decides what the
    // attacker can read from memory.
    const shield::shield_report report =
        depth_ > 0
            ? shield::pelta_shield(fp.graph, shield::select_first_k_transforms(fp.graph, depth_),
                                   enclave_, model().name() + "/")
            : shield::pelta_shield_tags(fp.graph, model().shield_frontier_tags(), enclave_,
                                        model().name() + "/");
    const shield::masked_view view{fp.graph, report};
    return upsampler_.apply(view.clear_adjoint(), image_shape, gen_);
  }

  rng gen_;
  tee::enclave* enclave_;
  std::int64_t depth_;
  adjoint_upsampler upsampler_;
};

// Related-work baseline: parameters shielded, input gradient exposed. The
// gradient is read *through the masked view* so the exposure is mechanical,
// not assumed.
class param_shield_oracle final : public model_oracle {
public:
  param_shield_oracle(const models::model& m, tee::enclave* enclave)
      : model_oracle{m}, enclave_{enclave} {}

private:
  tensor read_gradient(const models::forward_pass& fp, const shape_t& image_shape) override {
    const shield::shield_report report =
        shield::param_gradient_shield(fp.graph, enclave_, model().name() + "/pg/");
    const shield::masked_view view{fp.graph, report};
    PELTA_CHECK_MSG(shield::input_gradient_exposed(fp.graph, report),
                    "param-gradient shield unexpectedly masked the input");
    return view.adjoint(fp.input).reshape(image_shape);  // allowed: dL/dx is clear
  }

  tee::enclave* enclave_;
};

}  // namespace

tensor attention_rollout(const models::model& m, const ad::graph& g,
                         const shape_t& image_shape) {
  const std::int64_t blocks = m.attention_blocks();
  PELTA_CHECK_MSG(blocks > 0, "attention_rollout on a model without attention: " << m.name());
  PELTA_CHECK_MSG(g.value(g.inputs().at(0)).size(0) == 1, "attention_rollout needs a batch-1 pass");

  tensor rollout;  // [T+1, T+1]
  for (std::int64_t l = 0; l < blocks; ++l) {
    const ad::node_id id = g.find_tag(m.attention_softmax_tag(l));
    PELTA_CHECK_MSG(id != ad::invalid_node, "attention node missing for rollout");
    const tensor& probs = g.value(id);  // [heads, T+1, T+1]: batch 1, one slice per head
    const std::int64_t heads = probs.size(0), t1 = probs.size(1);
    tensor avg{shape_t{t1, t1}};  // mean over heads of W_att
    const auto pp = probs.data();
    auto pa = avg.data();
    for (std::int64_t h = 0; h < heads; ++h)
      for (std::size_t i = 0; i < pa.size(); ++i)
        pa[i] += pp[static_cast<std::size_t>(h) * pa.size() + i];
    avg.mul_(1.0f / static_cast<float>(heads));

    // A_l = row-normalized (0.5 W̄ + 0.5 I) — Eq. 4's per-block factor.
    for (std::int64_t i = 0; i < t1; ++i) {
      double row = 0.0;
      for (std::int64_t j = 0; j < t1; ++j) {
        avg.at(i, j) = 0.5f * avg.at(i, j) + (i == j ? 0.5f : 0.0f);
        row += avg.at(i, j);
      }
      for (std::int64_t j = 0; j < t1; ++j)
        avg.at(i, j) /= static_cast<float>(row);
    }
    rollout = (l == 0) ? std::move(avg) : ops::matmul(avg, rollout);
  }

  // Class-token attention to the patch tokens -> patch grid -> pixels.
  const std::int64_t t = rollout.size(0) - 1;
  const std::int64_t grid = static_cast<std::int64_t>(std::llround(std::sqrt(static_cast<double>(t))));
  PELTA_CHECK_MSG(grid * grid == t, "non-square token grid in rollout");
  tensor patch_map{shape_t{1, grid, grid}};
  for (std::int64_t tok = 0; tok < t; ++tok)
    patch_map.at(0, tok / grid, tok % grid) = rollout.at(0, tok + 1);

  const std::int64_t img_c = image_shape[0], img_h = image_shape[1], img_w = image_shape[2];
  const std::int64_t factor = img_h / grid;
  tensor pixel_map = ops::upsample_bilinear(patch_map, factor);  // [1, H, W]
  const float mu = ops::mean(pixel_map);
  if (mu > 0.0f) pixel_map.mul_(1.0f / mu);  // unit mean: keeps gradient scale

  tensor out{shape_t{img_c, img_h, img_w}};
  for (std::int64_t c = 0; c < img_c; ++c)
    for (std::int64_t y = 0; y < img_h; ++y)
      for (std::int64_t x = 0; x < img_w; ++x) out.at(c, y, x) = pixel_map.at(0, y, x);
  return out;
}

std::unique_ptr<gradient_oracle> make_clear_oracle(const models::model& m) {
  return std::make_unique<clear_oracle>(m);
}

std::unique_ptr<gradient_oracle> make_shielded_oracle(const models::model& m,
                                                      std::uint64_t kernel_seed,
                                                      tee::enclave* enclave) {
  return std::make_unique<shielded_oracle>(m, kernel_seed, enclave);
}

std::unique_ptr<gradient_oracle> make_shielded_oracle_depth(const models::model& m,
                                                            std::int64_t depth,
                                                            std::uint64_t kernel_seed,
                                                            tee::enclave* enclave) {
  PELTA_CHECK_MSG(depth >= 1, "ablation depth must be >= 1");
  return std::make_unique<shielded_oracle>(m, kernel_seed, enclave, depth);
}

std::unique_ptr<gradient_oracle> make_param_shield_oracle(const models::model& m,
                                                          tee::enclave* enclave) {
  return std::make_unique<param_shield_oracle>(m, enclave);
}

}  // namespace pelta::attacks
