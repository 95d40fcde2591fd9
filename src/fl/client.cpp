#include "fl/client.h"

#include "fl/state.h"
#include "models/trainer.h"
#include "nn/optimizer.h"

namespace pelta::fl {

fl_client::fl_client(std::int64_t id, std::unique_ptr<models::model> local_model,
                     std::vector<std::int64_t> shard, const data::dataset& ds)
    : id_{id}, model_{std::move(local_model)}, shard_{std::move(shard)}, dataset_{&ds} {
  PELTA_CHECK_MSG(model_ != nullptr, "client needs a model");
  PELTA_CHECK_MSG(!shard_.empty(), "client shard is empty");
}

void fl_client::receive_global(const byte_buffer& global_parameters) {
  install_state(*model_, global_parameters);
}

model_update fl_client::local_update(const local_train_config& config) {
  nn::adam opt{config.lr};
  rng order_gen{config.seed + static_cast<std::uint64_t>(id_) * 7919 +
                static_cast<std::uint64_t>(round_) * 104729};
  ++round_;

  for (std::int64_t epoch = 0; epoch < config.epochs; ++epoch) {
    // Shuffle the shard and iterate mini-batches.
    std::vector<std::int64_t> order = shard_;
    std::shuffle(order.begin(), order.end(), order_gen.engine());
    for (std::size_t start = 0; start < order.size();
         start += static_cast<std::size_t>(config.batch_size)) {
      const std::size_t end =
          std::min(order.size(), start + static_cast<std::size_t>(config.batch_size));
      const std::vector<std::int64_t> indices(order.begin() + static_cast<std::ptrdiff_t>(start),
                                              order.begin() + static_cast<std::ptrdiff_t>(end));
      const data::batch b = dataset_->gather_train(indices);
      model_->params().zero_grads();
      models::loss_and_grad(*model_, b);
      opt.step(model_->params());
    }
  }

  model_update update;
  update.client_id = id_;
  update.sample_count = shard_size();
  update.parameters = snapshot_state(*model_);
  return update;
}

attacks::attack_result compromised_client::craft_adversarial(
    const tensor& image, std::int64_t label, bool shielded, attacks::attack_kind kind,
    const attacks::suite_params& params, std::uint64_t seed) const {
  auto oracle = shielded ? attacks::make_shielded_oracle(local_model(), seed)
                         : attacks::make_clear_oracle(local_model());
  rng sample_rng{seed};
  return attacks::run_attack(kind, *oracle, image, label, params, sample_rng);
}

}  // namespace pelta::fl
