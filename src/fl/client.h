// Federated-learning clients.
//
// An fl_client owns a local copy of the model architecture and a shard of
// the training data (Fig. 1). Each round it loads the broadcast global
// parameters, trains locally, and returns its updated parameters for
// FedAvg aggregation. The compromised_client additionally probes its own
// local copy to craft adversarial examples — the attack PELTA mitigates.
#pragma once

#include <memory>

#include "attacks/runner.h"
#include "data/dataset.h"
#include "fl/network.h"
#include "models/trainer.h"
#include "tensor/serialize.h"

namespace pelta::fl {

struct local_train_config {
  std::int64_t epochs = 1;
  std::int64_t batch_size = 16;
  float lr = 2e-3f;
  std::uint64_t seed = 17;
};

struct model_update {
  std::int64_t client_id = -1;
  std::int64_t sample_count = 0;  ///< FedAvg weight
  byte_buffer parameters;         ///< serialized updated parameter values
  /// Global versions that landed between the broadcast this update trained
  /// from and the aggregation consuming it. Sync rounds aggregate at 0; the
  /// async runtime (fl/async.h) stamps it so staleness_weight can
  /// down-weight stale deltas.
  std::int64_t staleness = 0;
};

class fl_client {
public:
  /// `shard` indexes into the shared dataset's train split.
  fl_client(std::int64_t id, std::unique_ptr<models::model> local_model,
            std::vector<std::int64_t> shard, const data::dataset& ds);
  virtual ~fl_client() = default;

  std::int64_t id() const { return id_; }
  std::int64_t shard_size() const { return static_cast<std::int64_t>(shard_.size()); }
  models::model& local_model() { return *model_; }
  const models::model& local_model() const { return *model_; }

  /// Install the broadcast global parameters into the local copy.
  virtual void receive_global(const byte_buffer& global_parameters);

  /// Local training on the shard; returns the FedAvg update. Virtual so
  /// that malicious client variants (fl/poisoning.h) can substitute their
  /// own training loop without changing the protocol the server sees.
  virtual model_update local_update(const local_train_config& config);

protected:
  const std::vector<std::int64_t>& shard() const { return shard_; }
  const data::dataset& dataset() const { return *dataset_; }
  /// Rounds this client has participated in (advanced by train_local).
  std::int64_t local_round() const { return round_; }
  /// The local-training loop every client variant shares: `epochs` epochs
  /// of models::train_epochs at config.lr, each a fresh shuffle of the shard
  /// under the (seed, id, round) stream; advances the local round. `edit`
  /// lets malicious variants rewrite each gathered batch.
  void train_local(const local_train_config& config, std::int64_t epochs,
                   const models::batch_edit& edit = {});
  /// The FedAvg update carrying the local copy's current state.
  model_update make_update() const;

private:
  std::int64_t id_;
  std::unique_ptr<models::model> model_;
  std::vector<std::int64_t> shard_;
  const data::dataset* dataset_;
  std::int64_t round_ = 0;
};

/// A compromised node (Fig. 1): taps its own device memory for gradients.
/// With PELTA (`shielded = true`) the probe only sees the masked view and
/// falls back to the upsampling substitute.
class compromised_client final : public fl_client {
public:
  using fl_client::fl_client;

  attacks::attack_result craft_adversarial(const tensor& image, std::int64_t label, bool shielded,
                                           attacks::attack_kind kind,
                                           const attacks::suite_params& params,
                                           std::uint64_t seed) const;
};

}  // namespace pelta::fl
