// Vision Transformer (Dosovitskiy et al.) — scaled-down analogue.
//
// Architecture: patch embedding (patchify -> projection E -> class token ->
// position embedding, exactly the pipeline the paper shields, §V-A) ->
// pre-LN encoder blocks -> final LN -> class-token readout -> linear head.
#pragma once

#include <memory>

#include "models/model.h"
#include "nn/blocks.h"

namespace pelta::models {

struct vit_config {
  std::string name = "vit";
  std::int64_t image_size = 16;
  std::int64_t channels = 3;
  std::int64_t patch_size = 4;
  std::int64_t dim = 32;
  std::int64_t heads = 4;
  std::int64_t blocks = 3;
  std::int64_t mlp_hidden = 64;
  std::int64_t classes = 10;
  std::uint64_t seed = 11;
};

class vit_model final : public model {
public:
  explicit vit_model(const vit_config& config);

  const std::string& name() const override { return config_.name; }
  std::int64_t num_classes() const override { return config_.classes; }
  forward_pass forward(const tensor& images, ad::norm_mode mode) const override;
  nn::param_store& params() override { return params_; }
  const nn::param_store& params() const override { return params_; }

  /// PELTA shields everything up to the position-embedding add ("embed.out").
  std::vector<std::string> shield_frontier_tags() const override { return {"embed.out"}; }

  std::int64_t attention_blocks() const override { return config_.blocks; }
  std::string attention_softmax_tag(std::int64_t block) const override;

  const vit_config& config() const { return config_; }

private:
  vit_config config_;
  nn::param_store params_;
  std::unique_ptr<nn::patch_embedding> embed_;
  std::vector<nn::encoder_block> blocks_;
  std::unique_ptr<nn::layernorm_layer> final_ln_;
  std::unique_ptr<nn::linear_layer> head_;
};

}  // namespace pelta::models
