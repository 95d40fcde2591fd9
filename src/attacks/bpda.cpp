#include "attacks/bpda.h"

#include "models/trainer.h"
#include "models/zoo.h"
#include "nn/optimizer.h"

namespace pelta::attacks {

surrogate_result train_surrogate(const models::model& victim, const data::dataset& attacker_data,
                                 const surrogate_config& config) {
  PELTA_CHECK_MSG(!config.architecture.empty(), "surrogate needs an architecture name");
  models::task_spec task;
  task.image_size = attacker_data.config().image_size;
  task.channels = attacker_data.config().channels;
  task.classes = attacker_data.config().classes;
  task.seed = config.seed;  // fresh init: the attacker holds no weight priors

  surrogate_result result;
  result.surrogate = models::make_model(config.architecture, task);

  // Labels: the victim's predictions over the attacker's data (distill) or
  // the attacker's own ground truth.
  tensor labels = attacker_data.train_labels();
  if (config.distill) {
    labels = models::predict(victim, attacker_data.train_images());
    result.label_queries = attacker_data.train_size();
  }

  nn::adam opt{config.lr};
  data::batch_iterator batches{attacker_data.train_size(), config.batch_size,
                               rng{config.seed + 1}};
  for (std::int64_t epoch = 0; epoch < config.epochs; ++epoch) {
    const std::int64_t nb = batches.batches_per_epoch();
    for (std::int64_t i = 0; i < nb; ++i) {
      const std::vector<std::int64_t> idx = batches.next();
      data::batch b = attacker_data.gather_train(idx);
      for (std::size_t k = 0; k < idx.size(); ++k)
        b.labels[static_cast<std::int64_t>(k)] = labels[idx[k]];
      result.surrogate->params().zero_grads();
      models::loss_and_grad_sharded(*result.surrogate, b, config.shards);
      opt.step(result.surrogate->params());
    }
  }

  // Agreement: how often surrogate and victim answer alike on held-out data.
  const tensor sv = models::predict(*result.surrogate, attacker_data.test_images());
  const tensor vv = models::predict(victim, attacker_data.test_images());
  std::int64_t same = 0;
  for (std::int64_t i = 0; i < sv.numel(); ++i)
    if (sv[i] == vv[i]) ++same;
  result.agreement = static_cast<float>(same) / static_cast<float>(sv.numel());
  return result;
}

robust_eval evaluate_transfer_attack(const models::model& victim,
                                     const models::model& surrogate, const data::dataset& ds,
                                     const suite_params& params, std::int64_t max_samples,
                                     std::uint64_t seed) {
  const std::vector<std::int64_t> candidates =
      correctly_classified_indices(victim, ds, max_samples);
  PELTA_CHECK_MSG(!candidates.empty(), "victim classifies no test sample correctly");

  const rng root{seed};
  return tally_parallel(static_cast<std::int64_t>(candidates.size()), [&](std::int64_t i) {
    rng sample_rng = root.fork(static_cast<std::uint64_t>(i));
    (void)sample_rng.next_u64();
    auto oracle = make_clear_oracle(surrogate);  // white box on the surrogate
    const std::int64_t idx = candidates[static_cast<std::size_t>(i)];
    // No early stop: surrogate success is not the goal; transfer is.
    const attack_result r = run_attack(attack_kind::pgd, *oracle, ds.test_image(idx),
                                       ds.test_label(idx), params, sample_rng,
                                       /*early_stop=*/false);
    // Replay against the victim.
    return sample_outcome{models::predict_one(victim, r.adversarial) != ds.test_label(idx),
                          r.queries};
  });
}

}  // namespace pelta::attacks
