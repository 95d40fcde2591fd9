// Reusable layers: thin builders that register parameters in a param_store
// and append their transforms to a graph on apply(). Node tags follow the
// layer name, which is how the PELTA shield frontier and the SAGA attack
// locate specific vertices.
#pragma once

#include <string>

#include "autodiff/graph.h"
#include "autodiff/ops_norm.h"
#include "nn/param_store.h"
#include "tensor/rng.h"

namespace pelta::nn {

/// Dense layer over any leading rank: [..., In] -> [..., Out] (a head on
/// [B,In], a per-token projection on [B,T,In]).
class linear_layer {
public:
  linear_layer(param_store& store, rng& gen, std::string name, std::int64_t in, std::int64_t out,
               bool bias = true);
  ad::node_id apply(ad::graph& g, ad::node_id x) const;
  const std::string& name() const { return name_; }

private:
  std::string name_;
  ad::parameter* w_;
  ad::parameter* b_ = nullptr;
};

/// 2-d convolution, optionally with Big-Transfer weight standardization
/// applied to the kernel before the convolution (the WS node is tagged
/// "<name>.ws" and the conv output "<name>").
class conv2d_layer {
public:
  conv2d_layer(param_store& store, rng& gen, std::string name, std::int64_t in_ch,
               std::int64_t out_ch, std::int64_t kernel, std::int64_t stride, std::int64_t pad,
               bool bias, bool weight_standardized);
  ad::node_id apply(ad::graph& g, ad::node_id x) const;
  const std::string& name() const { return name_; }

private:
  std::string name_;
  ad::parameter* w_;
  ad::parameter* b_ = nullptr;
  std::int64_t stride_;
  std::int64_t pad_;
  bool weight_std_;
};

/// Batch normalization (ResNet-v2). Owns running statistics; the apply-time
/// mode selects batch statistics (train) or running statistics (eval).
class batchnorm_layer {
public:
  batchnorm_layer(param_store& store, std::string name, std::int64_t channels);
  ad::node_id apply(ad::graph& g, ad::node_id x, ad::norm_mode mode) const;
  const std::string& name() const { return name_; }
  ad::batchnorm_stats* stats() const { return stats_.get(); }

private:
  std::string name_;
  ad::parameter* gamma_;
  ad::parameter* beta_;
  std::unique_ptr<ad::batchnorm_stats> stats_;  // stable address across graphs
};

/// Group normalization (BiT).
class groupnorm_layer {
public:
  groupnorm_layer(param_store& store, std::string name, std::int64_t channels,
                  std::int64_t groups);
  ad::node_id apply(ad::graph& g, ad::node_id x) const;

private:
  std::string name_;
  ad::parameter* gamma_;
  ad::parameter* beta_;
  std::int64_t groups_;
};

/// Layer normalization over the embedding dimension (ViT).
class layernorm_layer {
public:
  layernorm_layer(param_store& store, std::string name, std::int64_t dim);
  ad::node_id apply(ad::graph& g, ad::node_id x) const;

private:
  std::string name_;
  ad::parameter* gamma_;
  ad::parameter* beta_;
};

}  // namespace pelta::nn
