#include "attacks/eot.h"

#include "tensor/ops.h"

namespace pelta::attacks {

namespace {

class defended_oracle final : public gradient_oracle {
public:
  defended_oracle(std::unique_ptr<gradient_oracle> inner,
                  const defenses::preprocessor_chain& chain, std::int64_t eot_samples,
                  std::uint64_t seed)
      : inner_{std::move(inner)},
        chain_{&chain},
        eot_samples_{chain.randomized() ? eot_samples : 1},
        gen_{seed} {
    PELTA_CHECK_MSG(eot_samples >= 1, "eot_samples " << eot_samples << " must be >= 1");
  }

  oracle_result query(const tensor& image, std::int64_t label) override {
    return average([&](const tensor& xt) { return inner_->query(xt, label); }, image);
  }

  oracle_result query_logit_seed(const tensor& image, const tensor& seed) override {
    return average([&](const tensor& xt) { return inner_->query_logit_seed(xt, seed); }, image);
  }

  tensor attention_saliency(const tensor& image) override {
    return inner_->attention_saliency(chain_->apply(image, gen_));
  }

  void reset(rng& gen) override { inner_->reset(gen); }

private:
  template <typename Query>
  oracle_result average(const Query& one, const tensor& image) {
    oracle_result acc;
    for (std::int64_t k = 0; k < eot_samples_; ++k) {
      const oracle_result r = one(chain_->apply(image, gen_));
      ++queries_;
      if (k == 0) {
        acc = r;
      } else {
        acc.gradient = ops::add(acc.gradient, r.gradient);
        acc.logits = ops::add(acc.logits, r.logits);
        acc.loss += r.loss;
      }
    }
    const float inv = 1.0f / static_cast<float>(eot_samples_);
    acc.gradient = ops::mul_scalar(acc.gradient, inv);
    acc.logits = ops::mul_scalar(acc.logits, inv);
    acc.loss *= inv;
    acc.predicted = ops::argmax(acc.logits);
    return acc;
  }

  std::unique_ptr<gradient_oracle> inner_;
  const defenses::preprocessor_chain* chain_;
  std::int64_t eot_samples_;
  rng gen_;
};

}  // namespace

std::unique_ptr<gradient_oracle> make_defended_oracle(std::unique_ptr<gradient_oracle> inner,
                                                      const defenses::preprocessor_chain& chain,
                                                      std::int64_t eot_samples,
                                                      std::uint64_t seed) {
  return std::make_unique<defended_oracle>(std::move(inner), chain, eot_samples, seed);
}

oracle_factory defended_oracle_factory(const oracle_factory& inner_factory,
                                       const defenses::preprocessor_chain& chain,
                                       std::int64_t eot_samples) {
  const defenses::preprocessor_chain* cp = &chain;
  return [inner_factory, cp, eot_samples](std::uint64_t seed) {
    return make_defended_oracle(inner_factory(seed), *cp, eot_samples, seed ^ 0xe07e07u);
  };
}

robust_eval evaluate_attack_defended(const defenses::defended_model& dm, const data::dataset& ds,
                                     const defended_eval_config& config,
                                     const oracle_factory& inner_factory) {
  // Candidate pool: correctly classified *through the defense* — robust
  // accuracy starts at 100% exactly as in the paper's protocol.
  const rng root{config.seed};
  std::vector<std::int64_t> candidates;
  for (std::int64_t i = 0; i < ds.test_size() &&
                           static_cast<std::int64_t>(candidates.size()) < config.max_samples;
       ++i) {
    rng gen = root.fork(static_cast<std::uint64_t>(i));
    if (dm.predict_one(ds.test_image(i), gen) == ds.test_label(i)) candidates.push_back(i);
  }
  PELTA_CHECK_MSG(!candidates.empty(), "defended model classifies no test sample correctly");

  const oracle_factory factory =
      defended_oracle_factory(inner_factory, dm.chain(), config.eot_samples);

  return tally_parallel(static_cast<std::int64_t>(candidates.size()), [&](std::int64_t i) {
    rng sample_rng = root.fork(0x10000u + static_cast<std::uint64_t>(i));
    auto oracle = factory(sample_rng.next_u64());
    const std::int64_t idx = candidates[static_cast<std::size_t>(i)];
    const std::int64_t label = ds.test_label(idx);
    // No early stop: success is judged by the defended model below, not by
    // the EOT oracle's own prediction.
    const attack_result r = run_attack(config.kind, *oracle, ds.test_image(idx), label,
                                       config.params, sample_rng, /*early_stop=*/false);

    // Deployment check: the victim's device also applies the defense, on
    // randomness the attacker does not control.
    rng deploy = root.fork(0x20000u + static_cast<std::uint64_t>(i));
    return sample_outcome{dm.predict_one(r.adversarial, deploy) != label, r.queries};
  });
}

}  // namespace pelta::attacks
