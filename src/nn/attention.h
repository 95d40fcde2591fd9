// Multi-head self-attention (Vaswani et al.) built from primitive graph ops.
//
// All heads run as one chain: split_heads on q, k and v ([B,T,H·dh] ->
// [B·H,T,dh]), one attention-weights node softmax(Q·Kᵀ/√dh), one batched ·V,
// then merge_heads. The attention-weights node is tagged "<name>.softmax"
// ([B·H,T,T], row b·H+h is head h of image b) so the Self-Attention
// Gradient Attack (SAGA) can read the attention weight matrices
// W^(att)_{l,i} of Eq. 4 from a clear (non-shielded) region of the graph.
#pragma once

#include "nn/layers.h"

namespace pelta::nn {

class multi_head_attention {
public:
  multi_head_attention(param_store& store, rng& gen, std::string name, std::int64_t dim,
                       std::int64_t heads);

  /// x [B,T,D] -> [B,T,D].
  ad::node_id apply(ad::graph& g, ad::node_id x) const;

  std::int64_t heads() const { return heads_; }
  const std::string& name() const { return name_; }

private:
  std::string name_;
  std::int64_t dim_;
  std::int64_t heads_;
  linear_layer q_;
  linear_layer k_;
  linear_layer v_;
  linear_layer out_;
};

}  // namespace pelta::nn
