#include "nn/layers.h"

#include "autodiff/ops_conv.h"
#include "autodiff/ops_linalg.h"
#include "nn/init.h"

namespace pelta::nn {

linear_layer::linear_layer(param_store& store, rng& gen, std::string name, std::int64_t in,
                           std::int64_t out, bool bias)
    : name_{std::move(name)} {
  w_ = &store.create(name_ + ".w", xavier_uniform(gen, {in, out}, in, out));
  if (bias) b_ = &store.create(name_ + ".b", tensor::zeros({out}));
}

ad::node_id linear_layer::apply(ad::graph& g, ad::node_id x) const {
  std::vector<ad::node_id> parents{x, g.add_parameter(*w_)};
  if (b_ != nullptr) parents.push_back(g.add_parameter(*b_));
  return g.add_transform(ad::make_linear(b_ != nullptr), std::move(parents), name_);
}

conv2d_layer::conv2d_layer(param_store& store, rng& gen, std::string name, std::int64_t in_ch,
                           std::int64_t out_ch, std::int64_t kernel, std::int64_t stride,
                           std::int64_t pad, bool bias, bool weight_standardized)
    : name_{std::move(name)}, stride_{stride}, pad_{pad}, weight_std_{weight_standardized} {
  const shape_t ws{out_ch, in_ch, kernel, kernel};
  w_ = &store.create(name_ + ".w", he_normal(gen, ws, conv_fan_in(ws)));
  if (bias) b_ = &store.create(name_ + ".b", tensor::zeros({out_ch}));
}

ad::node_id conv2d_layer::apply(ad::graph& g, ad::node_id x) const {
  ad::node_id w_node = g.add_parameter(*w_);
  if (weight_std_)
    w_node = g.add_transform(ad::make_weight_standardize(), {w_node}, name_ + ".ws");
  std::vector<ad::node_id> parents{x, w_node};
  if (b_ != nullptr) parents.push_back(g.add_parameter(*b_));
  return g.add_transform(ad::make_conv2d(stride_, pad_, b_ != nullptr), std::move(parents),
                         name_);
}

batchnorm_layer::batchnorm_layer(param_store& store, std::string name, std::int64_t channels)
    : name_{std::move(name)}, stats_{std::make_unique<ad::batchnorm_stats>()} {
  gamma_ = &store.create(name_ + ".gamma", tensor::ones({channels}));
  beta_ = &store.create(name_ + ".beta", tensor::zeros({channels}));
  stats_->running_mean = tensor::zeros({channels});
  stats_->running_var = tensor::ones({channels});
}

ad::node_id batchnorm_layer::apply(ad::graph& g, ad::node_id x, ad::norm_mode mode) const {
  return g.add_transform(ad::make_batchnorm2d(stats_.get(), mode),
                         {x, g.add_parameter(*gamma_), g.add_parameter(*beta_)}, name_);
}

groupnorm_layer::groupnorm_layer(param_store& store, std::string name, std::int64_t channels,
                                 std::int64_t groups)
    : name_{std::move(name)}, groups_{groups} {
  gamma_ = &store.create(name_ + ".gamma", tensor::ones({channels}));
  beta_ = &store.create(name_ + ".beta", tensor::zeros({channels}));
}

ad::node_id groupnorm_layer::apply(ad::graph& g, ad::node_id x) const {
  return g.add_transform(ad::make_groupnorm(groups_),
                         {x, g.add_parameter(*gamma_), g.add_parameter(*beta_)}, name_);
}

layernorm_layer::layernorm_layer(param_store& store, std::string name, std::int64_t dim)
    : name_{std::move(name)} {
  gamma_ = &store.create(name_ + ".gamma", tensor::ones({dim}));
  beta_ = &store.create(name_ + ".beta", tensor::zeros({dim}));
}

ad::node_id layernorm_layer::apply(ad::graph& g, ad::node_id x) const {
  return g.add_transform(ad::make_layernorm_lastdim(),
                         {x, g.add_parameter(*gamma_), g.add_parameter(*beta_)}, name_);
}

}  // namespace pelta::nn
