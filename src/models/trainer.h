// Model training loop (Adam + cross-entropy) and evaluation helpers.
//
// train_epochs is the one local-training loop: the central trainer, every
// FL client (honest, backdoor, evasion-poisoning) and the BPDA surrogate
// differ only in the sample order they feed it and an optional per-batch
// edit.
#pragma once

#include <functional>

#include "data/dataset.h"
#include "models/model.h"

namespace pelta::models {

struct train_config {
  std::int64_t epochs = 12;
  std::int64_t batch_size = 32;
  float lr = 2e-3f;
  float weight_decay = 1e-4f;
  std::uint64_t seed = 7;
  /// Data-parallel shards per batch (1 = sequential). Shard gradients are
  /// merged in shard order, so results are deterministic; batch-norm
  /// statistics are computed per shard (as in distributed BN).
  std::int64_t shards = 1;
};

struct train_report {
  float final_loss = 0.0f;
  float train_accuracy = 0.0f;
  float test_accuracy = 0.0f;  ///< the paper's "clean accuracy"
};

/// Train-split indices one epoch visits, in visit order; called once per
/// epoch, in epoch order.
using epoch_order = std::function<std::vector<std::int64_t>()>;

/// Per-batch edit applied after gathering, before the gradient step;
/// `indices` are the batch's train-split indices.
using batch_edit =
    std::function<void(data::batch& b, const std::vector<std::int64_t>& indices)>;

/// The shared order policy of train_model and the BPDA surrogate: one
/// in-place shuffle of 0..n-1 per epoch under rng{seed}, cumulative across
/// epochs.
epoch_order shuffled_order(std::int64_t n, std::uint64_t seed);

/// Adam over `config.epochs` epochs (lr and weight decay from `config`;
/// `config.seed` is the order policy's business, not the loop's). Each
/// epoch's order is sliced into `config.batch_size` mini-batches; each is
/// gathered, passed through `edit` (if set), then zero_grads →
/// loss_and_grad_sharded(config.shards) → step. Returns the last epoch's
/// mean batch loss.
float train_epochs(model& m, const data::dataset& ds, const train_config& config,
                   const epoch_order& order, const batch_edit& edit = {});

/// Train `m` on the dataset's train split; returns accuracies on both splits.
train_report train_model(model& m, const data::dataset& ds, const train_config& config);

/// One forward+backward over a batch; returns the loss. Parameter gradients
/// are accumulated into the model's param_store (caller zeroes/steps).
float loss_and_grad(model& m, const data::batch& b);

/// Same, split across `shards` data-parallel workers (see train_config).
float loss_and_grad_sharded(model& m, const data::batch& b, std::int64_t shards);

}  // namespace pelta::models
