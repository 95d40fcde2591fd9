// Composite blocks: ViT patch embedding, transformer encoder block, MLP.
#pragma once

#include "nn/attention.h"

namespace pelta::nn {

/// ViT input pipeline (the part PELTA shields, §V-A):
///   z0 = [x_class ; x¹_p E; …; x^N_p E] + E_pos
/// i.e. patchify -> per-patch projection E -> prepend learnable class token
/// -> add position embedding. Node tags: "<name>.patchify", "<name>.proj",
/// "<name>.cls", "<name>.out" (the position-embedding add).
class patch_embedding {
public:
  patch_embedding(param_store& store, rng& gen, std::string name, std::int64_t channels,
                  std::int64_t image_size, std::int64_t patch_size, std::int64_t dim);

  /// x [B,C,H,W] -> tokens [B, T+1, D].
  ad::node_id apply(ad::graph& g, ad::node_id x) const;

  std::int64_t tokens() const { return tokens_; }  ///< patch tokens (excl. class)
  const std::string& name() const { return name_; }

private:
  std::string name_;
  std::int64_t patch_size_;
  std::int64_t tokens_;
  token_linear_layer proj_;
  ad::parameter* class_token_;
  ad::parameter* pos_embed_;
};

/// Feed-forward block: LN -> linear -> GELU -> linear (pre-LN convention).
class mlp_block {
public:
  mlp_block(param_store& store, rng& gen, std::string name, std::int64_t dim,
            std::int64_t hidden);
  ad::node_id apply(ad::graph& g, ad::node_id x) const;

private:
  std::string name_;
  token_linear_layer fc1_;
  token_linear_layer fc2_;
};

/// Pre-LN transformer encoder block:
///   x = x + MHA(LN(x));  x = x + MLP(LN(x)).
class encoder_block {
public:
  encoder_block(param_store& store, rng& gen, std::string name, std::int64_t dim,
                std::int64_t heads, std::int64_t mlp_hidden);
  ad::node_id apply(ad::graph& g, ad::node_id x) const;
  const multi_head_attention& attention() const { return attn_; }

private:
  std::string name_;
  layernorm_layer ln1_;
  multi_head_attention attn_;
  layernorm_layer ln2_;
  mlp_block mlp_;
};

}  // namespace pelta::nn
