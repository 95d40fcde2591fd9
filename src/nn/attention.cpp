#include "nn/attention.h"

#include <cmath>

#include "autodiff/ops_elementwise.h"
#include "autodiff/ops_linalg.h"

namespace pelta::nn {

multi_head_attention::multi_head_attention(param_store& store, rng& gen, std::string name,
                                           std::int64_t dim, std::int64_t heads)
    : name_{std::move(name)},
      dim_{dim},
      heads_{heads},
      q_{store, gen, name_ + ".q", dim, dim},
      k_{store, gen, name_ + ".k", dim, dim},
      v_{store, gen, name_ + ".v", dim, dim},
      out_{store, gen, name_ + ".out", dim, dim} {
  PELTA_CHECK_MSG(dim % heads == 0, "attention dim " << dim << " not divisible by " << heads);
}

ad::node_id multi_head_attention::apply(ad::graph& g, ad::node_id x) const {
  const float inv_sqrt_dh = 1.0f / std::sqrt(static_cast<float>(dim_ / heads_));
  const auto split = [&](const linear_layer& proj) {
    return g.add_transform(ad::make_split_heads(heads_), {proj.apply(g, x)});
  };
  const ad::node_id q = split(q_);
  const ad::node_id k = split(k_);
  const ad::node_id v = split(v_);

  const ad::node_id probs =
      g.add_transform(ad::make_attention_weights(inv_sqrt_dh), {q, k}, name_ + ".softmax");
  const ad::node_id context = g.add_transform(ad::make_bmm(), {probs, v});
  return out_.apply(g, g.add_transform(ad::make_merge_heads(heads_), {context}));
}

}  // namespace pelta::nn
