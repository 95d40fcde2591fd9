// Abstract classifier interface shared by ViT, ResNet and BiT families.
//
// A model is a parameter store plus a graph builder: forward() constructs a
// fresh computational graph per batch (define-by-run), which is what both
// the trainer and the attacks differentiate, and what the PELTA shield
// masks. Each model declares its shield frontier — the deepest node tags
// Algorithm 1's Select step returns for it (§V-A of the paper).
#pragma once

#include <string>
#include <vector>

#include "autodiff/graph.h"
#include "autodiff/ops_norm.h"
#include "nn/param_store.h"

namespace pelta::models {

/// A freshly built forward pass: the graph plus the ids of its endpoints.
struct forward_pass {
  ad::graph graph;
  ad::node_id input = ad::invalid_node;
  ad::node_id logits = ad::invalid_node;
};

class model {
public:
  virtual ~model() = default;

  virtual const std::string& name() const = 0;
  virtual std::int64_t num_classes() const = 0;

  /// Build a fresh graph over images [B,C,H,W]. `mode` selects batch-norm
  /// behaviour (train = batch statistics, eval = running statistics).
  virtual forward_pass forward(const tensor& images, ad::norm_mode mode) const = 0;

  virtual nn::param_store& params() = 0;
  virtual const nn::param_store& params() const = 0;

  /// Tags of the deepest nodes PELTA shields for this architecture
  /// (Algorithm 1 Select): e.g. {"embed.out"} for ViT — everything up to
  /// and including the position-embedding add lives in the enclave.
  virtual std::vector<std::string> shield_frontier_tags() const = 0;

  // ---- attention introspection (SAGA Eq. 4); zero / empty for CNNs --------
  virtual std::int64_t attention_blocks() const { return 0; }
  /// Tag of block `block`'s softmax node: [B·heads, T, T], row b·heads+h.
  virtual std::string attention_softmax_tag(std::int64_t /*block*/) const { return {}; }

  /// Batch-norm running-statistics buffers (empty for BN-free models).
  /// These are state, not parameters: FL deployments must ship them with
  /// the model or the aggregated global model evaluates with untrained
  /// statistics — the classic BN-in-FL pitfall (and one reason BiT's
  /// GroupNorm is attractive for federated settings).
  virtual std::vector<ad::batchnorm_stats*> batchnorm_buffers() const { return {}; }

  std::int64_t parameter_count() const { return params().scalar_count(); }
};

/// Predictions [B] for a batch of images (eval mode).
tensor predict(const model& m, const tensor& images);

/// Logits [B, classes] for a batch of images (eval mode). Chunked across
/// the thread pool exactly like predict(); every row is bit-identical to a
/// batch-1 forward of that sample (the forward passes are per-sample
/// independent in eval mode), which is the contract the batched serving
/// runtime's scatter step relies on.
tensor predict_logits(const model& m, const tensor& images);

/// Predicted class for a single [C,H,W] image.
std::int64_t predict_one(const model& m, const tensor& image);

/// Fraction of images whose prediction matches the label.
float accuracy(const model& m, const tensor& images, const tensor& labels,
               std::int64_t batch_size = 64);

}  // namespace pelta::models
