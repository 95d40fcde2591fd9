#include "fl/client.h"

#include <algorithm>

#include "models/checkpoint.h"

namespace pelta::fl {

fl_client::fl_client(std::int64_t id, std::unique_ptr<models::model> local_model,
                     std::vector<std::int64_t> shard, const data::dataset& ds)
    : id_{id}, model_{std::move(local_model)}, shard_{std::move(shard)}, dataset_{&ds} {
  PELTA_CHECK_MSG(model_ != nullptr, "client needs a model");
  PELTA_CHECK_MSG(!shard_.empty(), "client shard is empty");
}

void fl_client::receive_global(const byte_buffer& global_parameters) {
  models::load_state(*model_, global_parameters);
}

void fl_client::train_local(const local_train_config& config, std::int64_t epochs,
                            const models::batch_edit& edit) {
  models::train_config tc;
  tc.epochs = epochs;
  tc.batch_size = config.batch_size;
  tc.lr = config.lr;
  tc.weight_decay = 0.0f;
  rng order_gen{config.seed + static_cast<std::uint64_t>(id_) * 7919 +
                static_cast<std::uint64_t>(round_) * 104729};
  ++round_;
  models::train_epochs(*model_, *dataset_, tc, [&] {
    std::vector<std::int64_t> order = shard_;
    std::shuffle(order.begin(), order.end(), order_gen.engine());
    return order;
  }, edit);
}

model_update fl_client::make_update() const {
  model_update update;
  update.client_id = id_;
  update.sample_count = shard_size();
  update.parameters = models::save_state(*model_);
  return update;
}

model_update fl_client::local_update(const local_train_config& config) {
  train_local(config, config.epochs);
  return make_update();
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
