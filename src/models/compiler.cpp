#include "models/compiler.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "autodiff/ops_conv.h"
#include "autodiff/ops_elementwise.h"
#include "autodiff/ops_linalg.h"
#include "tensor/quantized_tensor.h"

namespace pelta::models {

namespace {

// Effective keep-fp32 tag set. The default policy keeps everything up to
// the DEEPEST frontier-tagged step fp32: the shield masks those layers
// inside the enclave, and quantizing them would change the very activations
// the masking argument is about.
std::vector<std::string> effective_keep_tags(const std::vector<nn::chain_step>& chain,
                                             const std::vector<std::string>& frontier,
                                             const quantize_options& opts) {
  if (opts.quantize_all) {
    PELTA_CHECK_MSG(opts.keep_fp32_tags.empty(),
                    "quantize_all contradicts an explicit keep_fp32_tags list");
    return {};
  }
  if (!opts.keep_fp32_tags.empty()) return opts.keep_fp32_tags;
  std::size_t last = chain.size();  // npos
  for (std::size_t i = 0; i < chain.size(); ++i)
    if (std::find(frontier.begin(), frontier.end(), chain[i].tag) != frontier.end()) last = i;
  if (last == chain.size()) return {};
  std::vector<std::string> keep;
  for (std::size_t i = 0; i <= last; ++i) {
    PELTA_CHECK_MSG(!chain[i].tag.empty(),
                    "untagged chain step " << i << " inside the shield-frontier prefix — cannot "
                                              "express the default keep-fp32 policy by tag");
    keep.push_back(chain[i].tag);
  }
  return keep;
}

}  // namespace

std::unique_ptr<quantized_model> quantize_model(const model& source,
                                                const tensor& calibration_images,
                                                const quantize_options& opts,
                                                quantize_report* report) {
  PELTA_CHECK_MSG(calibration_images.ndim() == 4 && calibration_images.size(0) >= 1,
                  "calibration shard must be [B,C,H,W] with B >= 1, got "
                      << to_string(calibration_images.shape()));
  // One eval forward over the shard does double duty: its graph is the chain
  // we compile, and its cached node values are the calibration activations.
  const forward_pass fp = source.forward(calibration_images, ad::norm_mode::eval);
  const std::vector<nn::chain_step> chain = nn::parse_chain(fp.graph, fp.input, fp.logits);

  const std::vector<std::string> keep =
      effective_keep_tags(chain, source.shield_frontier_tags(), opts);
  const std::vector<nn::fusion_group> groups = nn::plan_fusion(chain, keep);

  std::unique_ptr<quantized_model> qm{new quantized_model{}};
  qm->name_ = source.name() + "+int8";
  qm->classes_ = source.num_classes();
  qm->frontier_ = source.shield_frontier_tags();

  // Own copies of every source parameter (names and creation order
  // preserved, so shield masking by name keeps working) ...
  const nn::param_store& src_params = source.params();
  for (std::size_t i = 0; i < src_params.size(); ++i) {
    const ad::parameter& p = src_params.at(i);
    qm->params_.create(p.name, p.value);
  }
  // ... and of every batch-norm buffer a kept-fp32 step reads.
  std::unordered_map<const ad::batchnorm_stats*, ad::batchnorm_stats*> stats_of;
  for (const nn::chain_step& st : chain) {
    if (st.bn_stats == nullptr || stats_of.count(st.bn_stats) != 0) continue;
    auto copy = std::make_unique<ad::batchnorm_stats>(
        ad::batchnorm_stats{st.bn_stats->running_mean, st.bn_stats->running_var});
    stats_of.emplace(st.bn_stats, copy.get());
    qm->bn_buffers_.push_back(std::move(copy));
  }

  const auto param_of = [&qm](const std::string& name) -> const tensor& {
    return std::as_const(qm->params_).get(name).value;
  };

  for (const nn::fusion_group& group : groups) {
    if (group.quantize) {
      auto stage =
          std::make_shared<nn::quantized_stage>(nn::build_quantized_stage(chain, group, param_of));
      // Calibrate: the stage's input is the source-graph value feeding the
      // group's first node (per-tensor symmetric, observed absolute max).
      const ad::node& head = fp.graph.at(chain[group.begin].node);
      const tensor& stage_in = fp.graph.value(head.parents[0]);
      stage->act_scale =
          quant::activation_scale(quant::absmax(stage_in.data().data(), stage_in.numel()));
      if (report != nullptr) report->quantized_tags.push_back(stage->tag);
      quantized_model::replay_step rs;
      rs.stage = std::move(stage);
      qm->steps_.push_back(std::move(rs));
      continue;
    }
    for (std::size_t i = group.begin; i < group.end; ++i) {
      quantized_model::replay_step rs;
      rs.step = chain[i];
      rs.step.bn_stats = nullptr;  // replay reads rs.stats (our copy) instead
      for (const std::string& pname : rs.step.param_names)
        rs.params.push_back(&qm->params_.get(pname));
      if (chain[i].kind == nn::step_kind::batchnorm2d) rs.stats = stats_of.at(chain[i].bn_stats);
      qm->steps_.push_back(std::move(rs));
    }
  }

  // The shield must be able to address the quantized model exactly like the
  // source: every frontier tag has to survive compilation (a fused stage
  // carries its group's last source tag).
  for (const std::string& tag : qm->frontier_) {
    bool found = false;
    for (const quantized_model::replay_step& rs : qm->steps_) {
      const std::string& t = rs.stage != nullptr ? rs.stage->tag : rs.step.tag;
      if (t == tag) {
        found = true;
        break;
      }
    }
    PELTA_CHECK_MSG(found, "shield frontier tag '" << tag
                                                   << "' did not survive quantization — it was "
                                                      "fused into the middle of an int8 stage");
  }

  if (report != nullptr) {
    report->stages_total = groups.size();
    report->stages_quantized =
        static_cast<std::size_t>(std::count_if(groups.begin(), groups.end(),
                                               [](const nn::fusion_group& g) { return g.quantize; }));
    report->stages_fp32 = report->stages_total - report->stages_quantized;
    report->kept_fp32_tags = keep;
  }
  return qm;
}

forward_pass quantized_model::forward(const tensor& images, ad::norm_mode mode) const {
  PELTA_CHECK_MSG(mode == ad::norm_mode::eval,
                  "quantized model '" << name_ << "' is inference-only (eval mode)");
  PELTA_CHECK_MSG(images.ndim() == 4,
                  "quantized model expects [B,C,H,W], got " << to_string(images.shape()));
  const std::int64_t batch = images.size(0);

  forward_pass fp;
  fp.input = fp.graph.add_input(images);
  ad::node_id x = fp.input;
  for (const replay_step& rs : steps_) {
    if (rs.stage != nullptr) {
      x = fp.graph.add_transform(nn::make_fused_stage(rs.stage), {x}, rs.stage->tag);
      continue;
    }
    const nn::chain_step& st = rs.step;
    std::vector<ad::node_id> parents{x};
    for (ad::parameter* p : rs.params) parents.push_back(fp.graph.add_parameter(*p));
    switch (st.kind) {
      case nn::step_kind::reshape: {
        shape_t target{batch};
        target.insert(target.end(), st.reshape_dims.begin(), st.reshape_dims.end());
        x = fp.graph.add_transform(ad::make_reshape(std::move(target)), std::move(parents), st.tag);
        break;
      }
      case nn::step_kind::affine:
        x = fp.graph.add_transform(ad::make_affine(st.scale, st.shift), std::move(parents), st.tag);
        break;
      case nn::step_kind::relu:
        x = fp.graph.add_transform(ad::make_relu(), std::move(parents), st.tag);
        break;
      case nn::step_kind::linear:
        x = fp.graph.add_transform(ad::make_linear(rs.params.size() > 1), std::move(parents),
                                   st.tag);
        break;
      case nn::step_kind::conv2d:
        x = fp.graph.add_transform(ad::make_conv2d(st.stride, st.pad, rs.params.size() > 1),
                                   std::move(parents), st.tag);
        break;
      case nn::step_kind::batchnorm2d:
        x = fp.graph.add_transform(
            ad::make_batchnorm2d(rs.stats, ad::norm_mode::eval, 0.1f, st.bn_eps),
            std::move(parents), st.tag);
        break;
      case nn::step_kind::global_avgpool:
        x = fp.graph.add_transform(ad::make_global_avgpool(), std::move(parents), st.tag);
        break;
    }
  }
  fp.logits = x;
  return fp;
}

std::vector<ad::batchnorm_stats*> quantized_model::batchnorm_buffers() const {
  std::vector<ad::batchnorm_stats*> out;
  out.reserve(bn_buffers_.size());
  for (const auto& b : bn_buffers_) out.push_back(b.get());
  return out;
}

}  // namespace pelta::models
