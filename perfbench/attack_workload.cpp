// attack_pgd: untargeted PGD against a PELTA-shielded ViT-B/16-sim, samples
// attacked one after another. The only workload that runs autodiff backward
// and the substitute-gradient oracle for every query, at batch 1 — the
// researcher's Table III cost. The enclave is never flushed (the paper's
// worst case) and the model stays at its seeded initialisation: training is
// not what this workload measures.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "attacks/iterative.h"
#include "attacks/oracle.h"
#include "autodiff/ops_loss.h"
#include "bench.h"
#include "data/dataset.h"
#include "models/zoo.h"
#include "probes.h"
#include "shield/shield.h"

namespace perfbench {

namespace {

using namespace pelta;

constexpr std::int64_t k_samples = 256;  // attacked in turn, cycling
// Fixed (early_stop is off). Long enough that one attacked sample spans
// the host's sub-second speed swings instead of landing in one of them.
constexpr std::int64_t k_steps = 50;
constexpr std::int64_t k_warmup_samples = 2;

/// Oracle decorator: times each query and keeps its inputs, so the traced
/// run can profile forward, backward and shield walk on the same images.
class timing_oracle final : public attacks::gradient_oracle {
public:
  explicit timing_oracle(attacks::gradient_oracle& inner) : inner_{&inner} {}

  attacks::oracle_result query(const tensor& image, std::int64_t label) override {
    ++queries_;
    if (active_log() != nullptr) seen.push_back(image);
    const scoped_span s{"attacks.query"};
    return inner_->query(image, label);
  }
  attacks::oracle_result query_logit_seed(const tensor& image, const tensor& seed) override {
    ++queries_;
    const scoped_span s{"attacks.query"};
    return inner_->query_logit_seed(image, seed);
  }
  tensor attention_saliency(const tensor& image) override {
    return inner_->attention_saliency(image);
  }
  void reset(rng& gen) override { inner_->reset(gen); }

  std::vector<tensor> seen;  ///< query inputs of the current sample (traced)

private:
  attacks::gradient_oracle* inner_;
};

struct attack_fixture {
  std::unique_ptr<models::model> model;
  std::vector<tensor> images;
  std::vector<std::int64_t> labels;
  tee::enclave enclave;
  std::unique_ptr<attacks::gradient_oracle> oracle;
  tee::enclave profile_enclave;  // keeps the profile's stores off the oracle's enclave
};

attacks::pgd_config pgd() {
  attacks::pgd_config c;  // eps 0.031, step 0.00155: the cifar10 setting
  c.steps = k_steps;
  c.early_stop = false;
  return c;
}

/// One oracle query replayed from public calls under spans: forward, the
/// cross-entropy backward, then Algorithm 1 with stores through a timing
/// port (ecall-style, as the oracle's enclave pointer path charges them).
void profile_query(attack_fixture& f, const tensor& image, std::int64_t label) {
  const scoped_span root{"attacks.profile", -1};
  models::forward_pass fp = [&] {
    const scoped_span s{"models.forward"};
    return f.model->forward(image.reshape({1, image.size(0), image.size(1), image.size(2)}),
                            ad::norm_mode::eval);
  }();
  {
    const scoped_span s{"autodiff.backward"};
    const ad::node_id labels =
        fp.graph.add_constant(tensor{shape_t{1}, {static_cast<float>(label)}});
    const ad::node_id loss =
        fp.graph.add_transform(ad::make_cross_entropy(), {fp.logits, labels}, "atk_loss");
    fp.graph.backward(loss);
  }
  tee::ecall_store direct{f.profile_enclave};
  timing_store port{direct};
  const scoped_span s{"shield.walk"};
  (void)shield::pelta_shield_tags(fp.graph, f.model->shield_frontier_tags(), port,
                                  f.model->name() + "/");
}

}  // namespace

workload_result run_attack_pgd(const run_options& o) {
  workload_result r;
  const attacks::pgd_config cfg = pgd();
  std::unique_ptr<attack_fixture> f = timed_setups(r, o, [&] {
    auto fx = std::make_unique<attack_fixture>();
    data::dataset_config dc = data::cifar10_like();
    dc.seed = derive_seed(o.seed, 11);
    dc.train_per_class = 1;
    dc.test_per_class = (k_samples + dc.classes - 1) / dc.classes;
    const data::dataset ds{dc};
    const models::task_spec task = task_of(dc, derive_seed(o.seed, 12));
    fx->model = models::make_vit_b16_sim(task);
    for (std::int64_t i = 0; i < k_samples; ++i) {
      fx->images.push_back(ds.test_image(i));
      fx->labels.push_back(ds.test_label(i));
    }
    fx->oracle = attacks::make_shielded_oracle(*fx->model, derive_seed(o.seed, 13), &fx->enclave);
    for (std::int64_t i = 0; i < k_warmup_samples; ++i)
      (void)attacks::run_pgd(*fx->oracle, fx->images[static_cast<std::size_t>(i)],
                             fx->labels[static_cast<std::size_t>(i)], cfg);
    return fx;
  });

  timing_oracle oracle{*f->oracle};
  span_log log;
  if (o.traced) set_active_log(&log);
  const tee::tee_stats tee0 = f->enclave.statistics();
  const std::int64_t oracle_q0 = f->oracle->queries();
  const std::int64_t window_end = now_ns() + static_cast<std::int64_t>(o.seconds * 1e9);
  std::int64_t queries = 0;
  std::size_t i = 0;
  do {
    const tensor& x0 = f->images[i % f->images.size()];
    const std::int64_t label = f->labels[i % f->labels.size()];
    oracle.seen.clear();
    const std::int64_t before = f->oracle->queries();
    quiet_reading(o, r, 1);
    const std::int64_t t0 = now_ns();
    attacks::attack_result res;
    {
      const scoped_span s{"attacks.pgd", -1};
      res = attacks::run_pgd(oracle, x0, label, cfg);
    }
    r.op_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    r.op_at_ns.push_back(t0);
    ++r.attempted;
    queries += res.queries;

    // The attack's contract: the iterate stays in the eps-ball and in
    // [0, 1], and consumed exactly steps + 1 queries.
    const float dist = attacks::linf_distance(res.adversarial, x0);
    const auto [lo, hi] =
        std::minmax_element(res.adversarial.data().begin(), res.adversarial.data().end());
    if (res.queries != k_steps + 1 || f->oracle->queries() - before != k_steps + 1)
      r.fail("sample " + std::to_string(i) + ": " + std::to_string(res.queries) +
             " queries, expected " + std::to_string(k_steps + 1));
    else if (!(dist <= cfg.eps * (1.0f + 1e-5f)))
      r.fail("sample " + std::to_string(i) + ": l_inf distance " + std::to_string(dist) +
             " outside eps " + std::to_string(cfg.eps));
    else if (!(*lo >= 0.0f && *hi <= 1.0f))
      r.fail("sample " + std::to_string(i) + ": adversarial pixel outside [0, 1]");

    // Profile outside the attack's span, on the inputs it queried.
    if (o.traced)
      for (const tensor& x : oracle.seen) profile_query(*f, x, label);
    ++i;
  } while (now_ns() < window_end);
  set_active_log(nullptr);

  r.cycle_ms = r.op_ms;
  r.cycle_at_ns = r.op_at_ns;
  r.work_per_cycle = static_cast<double>(k_steps + 1);
  r.note("pgd_steps", static_cast<double>(k_steps), "count");

  if (o.traced) {
    const span_tree t{log.take()};
    const tee::tee_stats& tee1 = f->enclave.statistics();
    const double q = std::max<double>(1.0, static_cast<double>(f->oracle->queries() - oracle_q0));
    std::vector<double> store_ms;
    for (const span* w : t.named("shield.walk"))
      store_ms.push_back(static_cast<double>((w->t1 - w->t0) - t.self_ns(*w)) / 1e6);
    const double query_total = sum(t.durations_ms("attacks.query"));
    r.layer.push_back({"models.forward_ms", median_or_zero(t.durations_ms("models.forward")), "ms"});
    r.layer.push_back({"models.forward_share",
                       query_total > 0 ? sum(t.durations_ms("models.forward")) / query_total : 0.0,
                       "ratio"});
    r.layer.push_back({"autodiff.backward_ms",
                       median_or_zero(t.durations_ms("autodiff.backward")), "ms"});
    r.layer.push_back({"shield.walk_self_ms", median_or_zero(t.self_ms("shield.walk")), "ms"});
    r.layer.push_back({"tee.store_ms", median_or_zero(store_ms), "ms"});
    r.layer.push_back({"tee.stores", static_cast<double>(tee1.stores - tee0.stores) / q, "count"});
    r.layer.push_back({"tee.hotcalls", 0.0, "count"});  // ecall-style stores: no hotcalls
    r.layer.push_back(
        {"tee.bytes_in", static_cast<double>(tee1.bytes_in - tee0.bytes_in) / q, "B"});
    r.layer.push_back({"tee.modeled_ns", (tee1.simulated_ns - tee0.simulated_ns) / q, "ns"});
    r.layer.push_back(
        {"attacks.query_ms", median_or_zero(t.durations_ms("attacks.query")), "ms"});
    r.layer.push_back({"attacks.queries", static_cast<double>(queries) /
                                              static_cast<double>(r.attempted), "count"});
    r.layer.push_back({"attacks.step_self_ms", median_or_zero(t.self_ms("attacks.pgd")), "ms"});
    r.note("tee.world_switches_per_query",
           static_cast<double>(tee1.world_switches - tee0.world_switches) / q, "count");

    // The profile replays each query's parts; together they should cover
    // most of a query (the rest is the upsampler and loss bookkeeping).
    std::vector<double> profile_ms = t.durations_ms("attacks.profile");
    r.note("profile_over_query", query_total > 0 ? sum(profile_ms) / query_total : 0.0, "ratio");
    double worst = 0.0;
    if (!t.roots_tiled("attacks.pgd", 0.01, &worst))
      r.check_failed("attacks.pgd spans are not tiled by their query spans");
    r.note("self_time_tiling_worst", worst, "ratio");
    r.trace_json = chrome_trace_json(t.spans());
  }
  return r;
}

}  // namespace perfbench
