#include "nn/compile.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "autodiff/node.h"
#include "autodiff/ops_conv.h"
#include "autodiff/ops_elementwise.h"
#include "autodiff/ops_linalg.h"
#include "autodiff/ops_norm.h"
#include "tensor/check.h"
#include "tensor/conv.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/parallel.h"
#include "tensor/scratch.h"

namespace pelta::nn {

namespace {

// Mirrors the ops.cpp matmul parallelization threshold: below this many
// multiply-adds a stage runs on the calling thread.
constexpr std::int64_t k_quant_parallel_flops = 1 << 15;

}  // namespace

// ---- phase 1: parse ---------------------------------------------------------

std::vector<chain_step> parse_chain(const ad::graph& g, ad::node_id input, ad::node_id logits) {
  PELTA_CHECK_MSG(g.at(input).kind == ad::node_kind::input,
                  "parse_chain must start at the model input leaf");
  std::vector<chain_step> chain;
  ad::node_id cur = input;
  while (cur != logits) {
    const std::vector<ad::node_id> kids = g.children(cur);
    PELTA_CHECK_MSG(kids.size() == 1,
                    "chain node " << cur << " ('" << g.at(cur).tag << "') has " << kids.size()
                                  << " children — only chain-shaped graphs compile (no residual "
                                     "branches)");
    const ad::node& nd = g.at(kids[0]);
    PELTA_CHECK(nd.kind == ad::node_kind::transform && nd.oper != nullptr);
    PELTA_CHECK_MSG(!nd.parents.empty() && nd.parents[0] == cur,
                    "chain op '" << nd.oper->name()
                                 << "' does not take the chain value as its first argument");
    chain_step st;
    st.node = nd.id;
    st.tag = nd.tag;
    const std::string_view op_name = nd.oper->name();
    // Every non-chain operand must be a plain parameter leaf: a transform
    // operand (e.g. a weight-standardized conv weight) cannot be folded into
    // fixed quantized scales and fails compilation loudly.
    const auto params_from = [&](std::size_t first) {
      for (std::size_t p = first; p < nd.parents.size(); ++p) {
        const ad::node& pn = g.at(nd.parents[p]);
        PELTA_CHECK_MSG(pn.kind == ad::node_kind::parameter && pn.param != nullptr,
                        "operand " << p << " of '" << op_name << "' at '" << st.tag
                                   << "' is not a parameter leaf — not compilable");
        st.param_names.push_back(pn.param->name);
      }
    };
    if (op_name == "reshape") {
      PELTA_CHECK(nd.parents.size() == 1);
      const shape_t* target = ad::reshape_shape_of(*nd.oper);
      PELTA_CHECK(target != nullptr && !target->empty());
      st.kind = step_kind::reshape;
      st.reshape_dims.assign(target->begin() + 1, target->end());
    } else if (op_name == "affine") {
      PELTA_CHECK(nd.parents.size() == 1);
      st.kind = step_kind::affine;
      PELTA_CHECK(ad::affine_params_of(*nd.oper, &st.scale, &st.shift));
    } else if (op_name == "relu") {
      PELTA_CHECK(nd.parents.size() == 1);
      st.kind = step_kind::relu;
    } else if (op_name == "linear") {
      PELTA_CHECK(nd.parents.size() == 2 || nd.parents.size() == 3);
      // A quantized linear stage runs on [batch, features] rows; a per-token
      // linear on [B,T,P] is outside the vocabulary.
      PELTA_CHECK_MSG(g.value(cur).ndim() == 2,
                      "linear '" << st.tag << "' on a " << to_string(g.value(cur).shape())
                                 << " chain value — only 2-d [batch, features] linear compiles");
      st.kind = step_kind::linear;
      params_from(1);
    } else if (op_name == "conv2d") {
      PELTA_CHECK(nd.parents.size() == 2 || nd.parents.size() == 3);
      st.kind = step_kind::conv2d;
      PELTA_CHECK(ad::conv2d_geometry_of(*nd.oper, &st.stride, &st.pad));
      params_from(1);
    } else if (op_name == "batchnorm2d") {
      PELTA_CHECK(nd.parents.size() == 3);
      st.kind = step_kind::batchnorm2d;
      bool is_eval = false;
      PELTA_CHECK(ad::batchnorm_params_of(*nd.oper, &st.bn_stats, &st.bn_eps, &is_eval));
      PELTA_CHECK_MSG(is_eval, "batch norm at '" << st.tag
                                                 << "' is in train mode — only eval-mode batch "
                                                    "norm (a fixed per-channel affine) compiles");
      params_from(1);
    } else if (op_name == "global_avgpool") {
      PELTA_CHECK(nd.parents.size() == 1);
      st.kind = step_kind::global_avgpool;
    } else {
      PELTA_CHECK_MSG(false, "op '" << op_name << "' at '" << st.tag
                                    << "' is outside the compile vocabulary");
    }
    cur = nd.id;
    chain.push_back(std::move(st));
  }
  PELTA_CHECK_MSG(!chain.empty(), "empty chain between input and logits");
  return chain;
}

// ---- phase 2: plan ----------------------------------------------------------

namespace {

bool any_tag_kept(const std::vector<chain_step>& chain, std::size_t begin, std::size_t end,
                  const std::vector<std::string>& keep_fp32_tags) {
  for (std::size_t i = begin; i < end; ++i) {
    if (chain[i].tag.empty()) continue;
    if (std::find(keep_fp32_tags.begin(), keep_fp32_tags.end(), chain[i].tag) !=
        keep_fp32_tags.end())
      return true;
  }
  return false;
}

}  // namespace

std::vector<fusion_group> plan_fusion(const std::vector<chain_step>& chain,
                                      const std::vector<std::string>& keep_fp32_tags) {
  std::vector<fusion_group> groups;
  const auto push = [&groups](bool quantize, std::size_t begin, std::size_t end) {
    if (!quantize && !groups.empty() && !groups.back().quantize && groups.back().end == begin) {
      groups.back().end = end;  // merge adjacent fp32 runs
      return;
    }
    groups.push_back(fusion_group{quantize, begin, end});
  };
  std::size_t i = 0;
  while (i < chain.size()) {
    std::size_t end = i + 1;
    bool fusable = false;
    switch (chain[i].kind) {
      case step_kind::linear:
        fusable = true;
        if (end < chain.size() && chain[end].kind == step_kind::relu) ++end;
        break;
      case step_kind::conv2d:
        fusable = true;
        if (end < chain.size() && chain[end].kind == step_kind::batchnorm2d) ++end;
        if (end < chain.size() && chain[end].kind == step_kind::relu) ++end;
        break;
      default:
        break;
    }
    push(fusable && !any_tag_kept(chain, i, end, keep_fp32_tags), i, end);
    i = end;
  }
  return groups;
}

// ---- phase 3: build ---------------------------------------------------------

quantized_stage build_quantized_stage(
    const std::vector<chain_step>& chain, const fusion_group& group,
    const std::function<const tensor&(const std::string&)>& param_of) {
  PELTA_CHECK(group.quantize && group.begin < group.end && group.end <= chain.size());
  const chain_step& head = chain[group.begin];
  quantized_stage st;
  st.tag = chain[group.end - 1].tag;
  std::size_t i = group.begin + 1;
  std::vector<float> bias;
  bool has_bias = false;

  if (head.kind == step_kind::linear) {
    PELTA_CHECK(!head.param_names.empty());
    const tensor& w = param_of(head.param_names[0]);
    PELTA_CHECK_MSG(w.ndim() == 2, "linear weight '" << head.param_names[0] << "' is not 2-d");
    const std::int64_t k = w.size(0);
    const std::int64_t n = w.size(1);
    st.in_features = k;
    st.out_features = n;
    if (head.param_names.size() > 1) {
      const tensor& b0 = param_of(head.param_names[1]);
      PELTA_CHECK(b0.numel() == n);
      bias.assign(b0.data().begin(), b0.data().end());
      has_bias = true;
    }
    st.weights = quant::quantize_weights_kn(w.data().data(), k, n);
    // Straight-through backward weights: dequantized codes, pre-transposed to
    // [n, k] so backward_input is one ops::matmul.
    tensor wb{shape_t{n, k}};
    for (std::int64_t j = 0; j < n; ++j)
      for (std::int64_t kk = 0; kk < k; ++kk)
        wb.at(j, kk) = static_cast<float>(st.weights.codes[static_cast<std::size_t>(kk * n + j)]) *
                       st.weights.scales[static_cast<std::size_t>(j)];
    st.w_backward = std::move(wb);
  } else {
    PELTA_CHECK_MSG(head.kind == step_kind::conv2d, "quantized group must start at a GEMM op");
    PELTA_CHECK(!head.param_names.empty());
    const tensor& w0 = param_of(head.param_names[0]);
    PELTA_CHECK_MSG(w0.ndim() == 4, "conv weight '" << head.param_names[0] << "' is not 4-d");
    st.is_conv = true;
    st.stride = head.stride;
    st.pad = head.pad;
    st.out_c = w0.size(0);
    st.in_c = w0.size(1);
    st.kh = w0.size(2);
    st.kw = w0.size(3);
    const std::int64_t oc = st.out_c;
    const std::int64_t ckk = st.in_c * st.kh * st.kw;

    std::vector<float> wf(w0.data().begin(), w0.data().end());  // [OC, CKK] row-major
    bias.assign(static_cast<std::size_t>(oc), 0.0f);
    if (head.param_names.size() > 1) {
      const tensor& b0 = param_of(head.param_names[1]);
      PELTA_CHECK(b0.numel() == oc);
      bias.assign(b0.data().begin(), b0.data().end());
      has_bias = true;
    }
    if (i < group.end && chain[i].kind == step_kind::batchnorm2d) {
      // Eval-mode batch norm is y = gamma * (x - mean) / sqrt(var + eps) + beta:
      // fold it into the conv as w' = w * inv_sigma, b' = (b - mean) * inv_sigma
      // + beta BEFORE quantization, so the per-channel scales see the folded
      // magnitudes.
      const chain_step& bn = chain[i];
      const tensor& gamma = param_of(bn.param_names[0]);
      const tensor& beta = param_of(bn.param_names[1]);
      PELTA_CHECK(bn.bn_stats != nullptr && gamma.numel() == oc && beta.numel() == oc);
      const tensor& mean = bn.bn_stats->running_mean;
      const tensor& var = bn.bn_stats->running_var;
      PELTA_CHECK(mean.numel() == oc && var.numel() == oc);
      for (std::int64_t c = 0; c < oc; ++c) {
        const float inv_sigma =
            gamma.data()[static_cast<std::size_t>(c)] /
            std::sqrt(var.data()[static_cast<std::size_t>(c)] + bn.bn_eps);
        for (std::int64_t f = 0; f < ckk; ++f)
          wf[static_cast<std::size_t>(c * ckk + f)] *= inv_sigma;
        bias[static_cast<std::size_t>(c)] =
            (bias[static_cast<std::size_t>(c)] - mean.data()[static_cast<std::size_t>(c)]) *
                inv_sigma +
            beta.data()[static_cast<std::size_t>(c)];
      }
      has_bias = true;
      ++i;
    }
    st.in_features = ckk;
    st.out_features = oc;
    // GEMM-B layout [CKK, OC]: row f = im2col feature (c*KH + kh)*KW + kw,
    // column = output channel.
    std::vector<float> bkn(static_cast<std::size_t>(ckk * oc), 0.0f);
    for (std::int64_t c = 0; c < oc; ++c)
      for (std::int64_t f = 0; f < ckk; ++f)
        bkn[static_cast<std::size_t>(f * oc + c)] = wf[static_cast<std::size_t>(c * ckk + f)];
    st.weights = quant::quantize_weights_kn(bkn.data(), ckk, oc);
    tensor wb{shape_t{st.out_c, st.in_c, st.kh, st.kw}};
    std::span<float> wbd = wb.data();
    for (std::int64_t c = 0; c < oc; ++c)
      for (std::int64_t f = 0; f < ckk; ++f)
        wbd[static_cast<std::size_t>(c * ckk + f)] =
            static_cast<float>(st.weights.codes[static_cast<std::size_t>(f * oc + c)]) *
            st.weights.scales[static_cast<std::size_t>(c)];
    st.w_backward = std::move(wb);
  }

  if (i < group.end && chain[i].kind == step_kind::relu) {
    st.fuse_relu = true;
    ++i;
  }
  PELTA_CHECK_MSG(i == group.end, "unfused step inside a quantized group");
  if (has_bias) st.bias = std::move(bias);
  return st;
}

// ---- execution --------------------------------------------------------------

namespace {

// One chunk of linear-stage rows: quantize this chunk's activations into a
// chunk-local arena claim, int8-GEMM into a chunk-local int32 claim,
// dequantize into the chunk's disjoint output rows. No cross-chunk state, and
// every per-element operation is exact or singly-rounded, so results are
// bitwise identical under any chunk partitioning.
void run_linear_rows(const quantized_stage& st, const float* x, float* out, std::int64_t lo,
                     std::int64_t hi) {
  const std::int64_t k = st.in_features;
  const std::int64_t n = st.out_features;
  const std::int64_t rs = ops::detail::qgemm_row_stride(k);
  const std::int64_t rows = hi - lo;
  scratch_arena& arena = scratch_arena::local();
  scratch_typed<std::uint8_t> a8 = arena.take_typed<std::uint8_t>(
      static_cast<std::size_t>(rows * rs));
  for (std::int64_t r = 0; r < rows; ++r) {
    std::uint8_t* arow = a8.data() + r * rs;
    quant::quantize_activations(x + (lo + r) * k, k, st.act_scale, arow);
    for (std::int64_t kk = k; kk < rs; ++kk) arow[kk] = 0;  // pad bytes: B pads are zero too
  }
  scratch_typed<std::int32_t> acc =
      arena.take_typed<std::int32_t>(static_cast<std::size_t>(rows * n));
  ops::detail::qgemm(a8.data(), rs, st.weights.packed.data(), st.weights.colsums.data(),
                     acc.data(), rows, k, n);
  quant::dequantize_rows(acc.data(), rows, n, st.act_scale, st.weights.scales.data(),
                         st.bias.empty() ? nullptr : st.bias.data(), st.fuse_relu, out + lo * n);
}

tensor run_linear(const quantized_stage& st, const tensor& x) {
  PELTA_CHECK_MSG(x.ndim() == 2 && x.size(1) == st.in_features,
                  "quantized linear '" << st.tag << "' expects [batch, " << st.in_features
                                       << "], got " << to_string(x.shape()));
  const std::int64_t m = x.size(0);
  const std::int64_t k = st.in_features;
  const std::int64_t n = st.out_features;
  tensor out{shape_t{m, n}};
  const float* px = x.data().data();
  float* po = out.data().data();
  if (m >= 2 && m * k * n >= k_quant_parallel_flops) {
    std::int64_t grain = std::max<std::int64_t>(1, m / (8 * parallel_thread_count()));
    grain = (grain + ops::detail::k_gemm_mr - 1) / ops::detail::k_gemm_mr *
            ops::detail::k_gemm_mr;
    parallel_for_range(m, grain, [&st, px, po](std::int64_t lo, std::int64_t hi) {
      run_linear_rows(st, px, po, lo, hi);
    });
  } else {
    run_linear_rows(st, px, po, 0, m);
  }
  return out;
}

// One image of a conv stage: quantize the whole image once, build shifted-u8
// im2col rows (out-of-bounds pixels take the exact zero code), int8-GEMM
// [OH*OW, CKK] x [CKK, OC], dequantize, transpose to NCHW.
void run_conv_image(const quantized_stage& st, const float* img, std::int64_t h, std::int64_t w,
                    std::int64_t oh, std::int64_t ow, float* out_img) {
  const std::int64_t c = st.in_c;
  const std::int64_t ckk = st.in_features;
  const std::int64_t oc = st.out_features;
  const std::int64_t rs = ops::detail::qgemm_row_stride(ckk);
  const std::int64_t ohow = oh * ow;
  const std::uint8_t zero_code = static_cast<std::uint8_t>(quant::k_act_zero);
  scratch_arena& arena = scratch_arena::local();
  scratch_typed<std::uint8_t> img8 =
      arena.take_typed<std::uint8_t>(static_cast<std::size_t>(c * h * w));
  quant::quantize_activations(img, c * h * w, st.act_scale, img8.data());
  scratch_typed<std::uint8_t> a8 =
      arena.take_typed<std::uint8_t>(static_cast<std::size_t>(ohow * rs));
  std::int64_t row = 0;
  for (std::int64_t oy = 0; oy < oh; ++oy) {
    for (std::int64_t ox = 0; ox < ow; ++ox, ++row) {
      std::uint8_t* arow = a8.data() + row * rs;
      std::int64_t col = 0;
      for (std::int64_t cc = 0; cc < c; ++cc) {
        for (std::int64_t ky = 0; ky < st.kh; ++ky) {
          const std::int64_t iy = oy * st.stride + ky - st.pad;
          for (std::int64_t kx = 0; kx < st.kw; ++kx, ++col) {
            const std::int64_t ix = ox * st.stride + kx - st.pad;
            arow[col] = (iy >= 0 && iy < h && ix >= 0 && ix < w)
                            ? img8.data()[(cc * h + iy) * w + ix]
                            : zero_code;
          }
        }
      }
      for (; col < rs; ++col) arow[col] = 0;
    }
  }
  scratch_typed<std::int32_t> acc =
      arena.take_typed<std::int32_t>(static_cast<std::size_t>(ohow * oc));
  ops::detail::qgemm(a8.data(), rs, st.weights.packed.data(), st.weights.colsums.data(),
                     acc.data(), ohow, ckk, oc);
  scratch_buffer deq = arena.take(static_cast<std::size_t>(ohow * oc));
  quant::dequantize_rows(acc.data(), ohow, oc, st.act_scale, st.weights.scales.data(),
                         st.bias.empty() ? nullptr : st.bias.data(), st.fuse_relu, deq.data());
  for (std::int64_t ocx = 0; ocx < oc; ++ocx)
    for (std::int64_t p = 0; p < ohow; ++p) out_img[ocx * ohow + p] = deq.data()[p * oc + ocx];
}

tensor run_conv(const quantized_stage& st, const tensor& x) {
  PELTA_CHECK_MSG(x.ndim() == 4 && x.size(1) == st.in_c,
                  "quantized conv '" << st.tag << "' expects [batch, " << st.in_c
                                     << ", H, W], got " << to_string(x.shape()));
  const std::int64_t b = x.size(0);
  const std::int64_t h = x.size(2);
  const std::int64_t w = x.size(3);
  const std::int64_t oh = (h + 2 * st.pad - st.kh) / st.stride + 1;
  const std::int64_t ow = (w + 2 * st.pad - st.kw) / st.stride + 1;
  PELTA_CHECK_MSG(oh >= 1 && ow >= 1, "quantized conv '" << st.tag << "' output would be empty");
  tensor out{shape_t{b, st.out_c, oh, ow}};
  const float* px = x.data().data();
  float* po = out.data().data();
  const std::int64_t per_image = st.in_c * h * w;
  const std::int64_t out_per_image = st.out_c * oh * ow;
  const auto one = [&st, px, po, h, w, oh, ow, per_image, out_per_image](std::int64_t i) {
    run_conv_image(st, px + i * per_image, h, w, oh, ow, po + i * out_per_image);
  };
  if (b >= 2 && b * oh * ow * st.in_features * st.out_features >= k_quant_parallel_flops) {
    parallel_for(b, one);
  } else {
    for (std::int64_t i = 0; i < b; ++i) one(i);
  }
  return out;
}

}  // namespace

tensor quantized_stage::run(const tensor& x) const {
  return is_conv ? run_conv(*this, x) : run_linear(*this, x);
}

tensor quantized_stage::backward_input(const tensor& grad_out, const tensor& x,
                                       const tensor& out) const {
  tensor g = grad_out;
  if (fuse_relu) {
    std::span<float> gd = g.data();
    std::span<const float> od = out.data();
    PELTA_CHECK(gd.size() == od.size());
    for (std::size_t i = 0; i < gd.size(); ++i)
      if (!(od[i] > 0.0f)) gd[i] = 0.0f;
  }
  if (is_conv) return ops::conv2d_backward_input(g, w_backward, stride, pad, x.shape());
  return ops::matmul(g, w_backward);
}

// ---- graph op ---------------------------------------------------------------

namespace {

class fused_stage_op final : public ad::op {
public:
  explicit fused_stage_op(std::shared_ptr<const quantized_stage> stage)
      : stage_{std::move(stage)} {}

  std::string_view name() const override { return stage_->is_conv ? "qconv2d" : "qlinear"; }

  tensor forward(std::span<const tensor* const> inputs) override {
    PELTA_CHECK(inputs.size() == 1);
    return stage_->run(*inputs[0]);
  }

  // Straight-through (BPDA) gradient: fp32 chain rule through the
  // DEQUANTIZED weights, relu mask from the cached quantized output.
  std::vector<tensor> backward(const tensor& grad_out, std::span<const tensor* const> inputs,
                               const tensor& output) const override {
    PELTA_CHECK(inputs.size() == 1);
    std::vector<tensor> grads;
    grads.push_back(stage_->backward_input(grad_out, *inputs[0], output));
    return grads;
  }

private:
  std::shared_ptr<const quantized_stage> stage_;
};

}  // namespace

ad::op_ptr make_fused_stage(std::shared_ptr<const quantized_stage> stage) {
  PELTA_CHECK(stage != nullptr);
  return std::make_unique<fused_stage_op>(std::move(stage));
}

}  // namespace pelta::nn
