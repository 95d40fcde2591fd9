#include "fl/poisoning.h"

#include <algorithm>

#include "models/checkpoint.h"
#include "tensor/ops.h"

namespace pelta::fl {

tensor apply_trigger(const tensor& image, const trigger_pattern& trigger) {
  PELTA_CHECK_MSG(image.ndim() == 3, "trigger expects [C,H,W]");
  PELTA_CHECK_MSG(trigger.size >= 1 && trigger.size <= image.size(1) &&
                      trigger.size <= image.size(2),
                  "trigger size " << trigger.size << " too large for " << to_string(image.shape()));
  tensor out = image;
  for (std::int64_t c = 0; c < out.size(0); ++c)
    for (std::int64_t y = out.size(1) - trigger.size; y < out.size(1); ++y)
      for (std::int64_t x = out.size(2) - trigger.size; x < out.size(2); ++x)
        out.at(c, y, x) = trigger.value;
  return out;
}

namespace {

/// Stamp the first `count` images of the batch in-place and relabel them.
void poison_batch(data::batch& b, std::int64_t count, const trigger_pattern& trigger,
                  std::int64_t target_class) {
  const std::int64_t n = b.labels.numel();
  const std::int64_t chw = b.images.numel() / n;
  for (std::int64_t i = 0; i < std::min(count, n); ++i) {
    tensor img{shape_t{b.images.size(1), b.images.size(2), b.images.size(3)}};
    const auto src = b.images.data();
    std::copy(src.begin() + i * chw, src.begin() + (i + 1) * chw, img.data().begin());
    const tensor stamped = apply_trigger(img, trigger);
    std::copy(stamped.data().begin(), stamped.data().end(),
              b.images.data().begin() + i * chw);
    b.labels[i] = static_cast<float>(target_class);
  }
}

}  // namespace

backdoor_client::backdoor_client(std::int64_t id, std::unique_ptr<models::model> local_model,
                                 std::vector<std::int64_t> shard, const data::dataset& ds,
                                 const backdoor_config& config)
    : fl_client{id, std::move(local_model), std::move(shard), ds}, config_{config} {
  PELTA_CHECK_MSG(config.target_class >= 0 && config.target_class < this->local_model().num_classes(),
                  "backdoor target class out of range");
  PELTA_CHECK_MSG(config.poison_fraction >= 0.0f && config.poison_fraction <= 1.0f,
                  "poison_fraction outside [0,1]");
  PELTA_CHECK_MSG(config.boost >= 1.0f, "boost must be >= 1");
  PELTA_CHECK_MSG(config.extra_epochs_factor >= 1, "extra_epochs_factor must be >= 1");
}

void backdoor_client::receive_global(const byte_buffer& global_parameters) {
  last_global_ = global_parameters;
  fl_client::receive_global(global_parameters);
}

model_update backdoor_client::local_update(const local_train_config& config) {
  train_local(config, config.epochs * config_.extra_epochs_factor,
              [&](data::batch& b, const std::vector<std::int64_t>& indices) {
                const auto poisoned = static_cast<std::int64_t>(
                    config_.poison_fraction * static_cast<float>(indices.size()));
                poison_batch(b, poisoned, config_.trigger, config_.target_class);
              });

  // Model replacement (Bagdasaryan et al.): scale the delta so FedAvg's
  // dilution by honest clients is cancelled.
  if (config_.boost > 1.0f) {
    PELTA_CHECK_MSG(!last_global_.empty(), "boost requires a received global model");
    const byte_buffer local = models::save_state(local_model());
    byte_buffer boosted;
    std::size_t lo = 0, go = 0;
    while (lo < local.size()) {
      tensor l = deserialize_tensor(local, lo);
      const tensor g = deserialize_tensor(last_global_, go);
      PELTA_CHECK_MSG(l.same_shape(g), "global/local structure mismatch in boost");
      for (std::int64_t i = 0; i < l.numel(); ++i)
        l[i] = g[i] + config_.boost * (l[i] - g[i]);
      serialize_tensor(l, boosted);
    }
    models::load_state(local_model(), boosted);
  }
  return make_update();
}

float backdoor_success_rate(const models::model& m, const data::dataset& ds,
                            const backdoor_config& config, std::int64_t max_samples) {
  std::int64_t hits = 0, total = 0;
  for (std::int64_t i = 0; i < ds.test_size() && total < max_samples; ++i) {
    if (ds.test_label(i) == config.target_class) continue;  // stamping these proves nothing
    ++total;
    const tensor triggered = apply_trigger(ds.test_image(i), config.trigger);
    if (models::predict_one(m, triggered) == config.target_class) ++hits;
  }
  PELTA_CHECK_MSG(total > 0, "no non-target test samples available");
  return static_cast<float>(hits) / static_cast<float>(total);
}

evasion_poison_client::evasion_poison_client(std::int64_t id,
                                             std::unique_ptr<models::model> local_model,
                                             std::vector<std::int64_t> shard,
                                             const data::dataset& ds,
                                             const evasion_poison_config& config)
    : fl_client{id, std::move(local_model), std::move(shard), ds}, config_{config} {
  PELTA_CHECK_MSG(config.crafts_per_round >= 1, "crafts_per_round must be >= 1");
}

model_update evasion_poison_client::local_update(const local_train_config& config) {
  // 1. Probe the local copy for fresh adversarial examples (the step PELTA
  //    intercepts): white-box PGD via the clear oracle, or the upsampling
  //    substitute when the device is shielded.
  const attacks::oracle_factory factory =
      config_.shielded ? attacks::shielded_oracle_factory(local_model())
                       : attacks::clear_oracle_factory(local_model());
  rng gen{config_.seed + static_cast<std::uint64_t>(local_round()) * 31337};
  for (std::int64_t k = 0; k < config_.crafts_per_round; ++k) {
    const std::int64_t idx = shard()[static_cast<std::size_t>(
        gen.uniform_int(0, shard_size() - 1))];
    const data::batch one = dataset().gather_train({idx});
    tensor image{shape_t{one.images.size(1), one.images.size(2), one.images.size(3)}};
    std::copy(one.images.data().begin(), one.images.data().end(), image.data().begin());
    const auto label = static_cast<std::int64_t>(one.labels[0]);

    auto oracle = factory(gen.next_u64());
    attacks::pgd_config pc;
    pc.eps = config_.params.eps;
    pc.eps_step = config_.params.eps_step;
    pc.steps = config_.params.pgd_steps;
    const attacks::attack_result r = attacks::run_pgd(*oracle, image, label, pc);
    ++craft_attempts_;
    // Only a "newfound" misclassification is worth reinforcing: the
    // attacker adopts the wrong class its own copy predicts. When PELTA
    // leaves the probe with the upsampled adjoint, most attempts end here.
    const std::int64_t predicted = models::predict_one(local_model(), r.adversarial);
    if (predicted != label) replay_.push_back({r.adversarial, label, predicted});
  }

  // 2. Honest-looking local training, with the replay set mixed in under
  //    the attacker's labels (Bhagoji et al.'s repeated-misclassification).
  train_local(config, config.epochs, [&](data::batch& b, const std::vector<std::int64_t>&) {
    // splice up to batch_size/2 replay samples into the batch (most recent
    // first — those were crafted against the freshest weights)
    const std::int64_t n = b.labels.numel();
    const std::int64_t chw = b.images.numel() / n;
    const auto splice = std::min<std::int64_t>(n / 2, static_cast<std::int64_t>(replay_.size()));
    for (std::int64_t i = 0; i < splice; ++i) {
      const replay_sample& s = replay_[replay_.size() - 1 - static_cast<std::size_t>(i)];
      std::copy(s.x_adv.data().begin(), s.x_adv.data().end(), b.images.data().begin() + i * chw);
      b.labels[i] = static_cast<float>(s.adopted_label);
    }
  });
  return make_update();
}

float replay_attack_rate(const models::model& m,
                         const std::vector<evasion_poison_client::replay_sample>& replay,
                         std::int64_t craft_attempts) {
  PELTA_CHECK_MSG(craft_attempts > 0, "no craft attempts recorded");
  std::int64_t hits = 0;
  for (const auto& s : replay)
    if (models::predict_one(m, s.x_adv) != s.true_label) ++hits;
  return static_cast<float>(hits) / static_cast<float>(craft_attempts);
}

}  // namespace pelta::fl
