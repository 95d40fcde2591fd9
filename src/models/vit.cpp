#include "models/vit.h"

#include "autodiff/ops_elementwise.h"
#include "autodiff/ops_linalg.h"
#include "models/filters.h"

namespace pelta::models {

vit_model::vit_model(const vit_config& config) : config_{config} {
  rng gen{config.seed};
  embed_ = std::make_unique<nn::patch_embedding>(params_, gen, "embed", config.channels,
                                                 config.image_size, config.patch_size, config.dim);
  blocks_.reserve(static_cast<std::size_t>(config.blocks));
  for (std::int64_t i = 0; i < config.blocks; ++i)
    blocks_.emplace_back(params_, gen, "enc" + std::to_string(i), config.dim, config.heads,
                         config.mlp_hidden);
  final_ln_ = std::make_unique<nn::layernorm_layer>(params_, "final_ln", config.dim);
  head_ = std::make_unique<nn::linear_layer>(params_, gen, "head", config.dim, config.classes);
}

forward_pass vit_model::forward(const tensor& images, ad::norm_mode /*mode*/) const {
  PELTA_CHECK_MSG(images.ndim() == 4 && images.size(1) == config_.channels &&
                      images.size(2) == config_.image_size && images.size(3) == config_.image_size,
                  "vit forward input " << to_string(images.shape()));
  forward_pass fp;
  fp.input = fp.graph.add_input(images, "x");
  // Dataset normalization (pixels [0,1] -> roughly zero-mean unit-range);
  // part of the model, so attacks still operate in pixel space.
  const ad::node_id normed =
      fp.graph.add_transform(ad::make_affine(4.0f, -0.5f), {fp.input}, "normalize");
  // Transformer-family frequency bias: low-pass before patch extraction
  // (see models/filters.h).
  const ad::node_id banded = apply_box_blur(fp.graph, normed, config_.channels, "lowpass");
  ad::node_id h = embed_->apply(fp.graph, banded);
  for (const auto& block : blocks_) h = block.apply(fp.graph, h);
  h = final_ln_->apply(fp.graph, h);
  const ad::node_id cls = fp.graph.add_transform(ad::make_slice_row(0), {h}, "cls_readout");
  fp.logits = head_->apply(fp.graph, cls);
  return fp;
}

std::string vit_model::attention_softmax_tag(std::int64_t block) const {
  PELTA_CHECK(block >= 0 && block < config_.blocks);
  return "enc" + std::to_string(block) + ".attn.softmax";
}

}  // namespace pelta::models
