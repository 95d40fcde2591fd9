// Extension bench (§I motivation, §VII): the poisoning attacks adversarial
// examples enable, and what mitigates them on each side of the wire.
//
// Part A — trojan-trigger backdoor with model replacement (Bagdasaryan et
// al. [15], the paper's §I scenario) against four server-side aggregation
// rules. Expected shape: boosted FedAvg embeds the backdoor at high success
// while clean accuracy stays unsuspicious; coordinate median / trimmed mean
// / norm clipping blunt it.
//
// Part B — evasion-based poisoning (Bhagoji et al. [16], §I: "repeatedly
// misclassify their newfound adversarial examples"): the compromised client
// probes its local copy for adversarial examples and reinforces their
// misclassification through its updates. Expected shape: PELTA on the
// client device removes the probe's gradient signal, so the attacker finds
// almost nothing to reinforce — the client-side mitigation complements the
// server-side rules of Part A.
#include "bench/common.h"
#include "core/table.h"
#include "fl/poisoning.h"
#include "fl/server.h"

namespace {

using namespace pelta;

struct fed_setup {
  const data::dataset& ds;
  models::task_spec task;
  std::int64_t clients = 4;
  std::int64_t rounds = 4;
  fl::local_train_config lc;

  std::unique_ptr<models::model> fresh_model(std::uint64_t seed) const {
    models::task_spec t = task;
    t.seed = seed;
    return models::make_model("ViT-B/16", t);
  }

  std::vector<std::int64_t> shard_of(std::int64_t k) const {
    std::vector<std::int64_t> out;
    for (std::int64_t i = k; i < ds.train_size(); i += clients) out.push_back(i);
    return out;
  }
};

void run_rounds(fl::fl_server& server, const std::vector<fl::fl_client*>& clients,
                const fed_setup& s, fl::aggregation_rule rule) {
  for (std::int64_t r = 0; r < s.rounds; ++r) {
    const byte_buffer g = server.broadcast();
    std::vector<fl::model_update> updates;
    for (fl::fl_client* c : clients) {
      c->receive_global(g);
      updates.push_back(c->local_update(s.lc));
    }
    server.aggregate(updates, rule);
  }
}

struct backdoor_outcome {
  float success = 0.0f;
  float clean = 0.0f;
};

backdoor_outcome run_backdoor(const fed_setup& s, const fl::backdoor_config& bd,
                              fl::aggregation_rule rule, std::uint64_t seed) {
  fl::fl_server server{s.fresh_model(seed)};
  std::vector<std::unique_ptr<fl::fl_client>> owned;
  for (std::int64_t i = 0; i + 1 < s.clients; ++i)
    owned.push_back(std::make_unique<fl::fl_client>(i, s.fresh_model(seed + 1 + i),
                                                    s.shard_of(i), s.ds));
  owned.push_back(std::make_unique<fl::backdoor_client>(
      s.clients - 1, s.fresh_model(seed + 99), s.shard_of(s.clients - 1), s.ds, bd));
  std::vector<fl::fl_client*> clients;
  for (auto& c : owned) clients.push_back(c.get());
  run_rounds(server, clients, s, rule);
  return {fl::backdoor_success_rate(server.global_model(), s.ds, bd, 100),
          models::accuracy(server.global_model(), s.ds.test_images(), s.ds.test_labels())};
}

struct evasion_outcome {
  float attack_rate = 0.0f;
  float clean = 0.0f;
  std::int64_t found = 0;
  std::int64_t attempts = 0;
};

evasion_outcome run_evasion(const fed_setup& s, bool shielded, std::uint64_t seed) {
  fl::evasion_poison_config ec;
  ec.params = attacks::params_for_dataset(s.ds.config().name);
  ec.shielded = shielded;
  ec.crafts_per_round = 8;

  fl::fl_server server{s.fresh_model(seed)};
  std::vector<std::unique_ptr<fl::fl_client>> owned;
  for (std::int64_t i = 0; i + 1 < s.clients; ++i)
    owned.push_back(std::make_unique<fl::fl_client>(i, s.fresh_model(seed + 1 + i),
                                                    s.shard_of(i), s.ds));
  auto poisoner = std::make_unique<fl::evasion_poison_client>(
      s.clients - 1, s.fresh_model(seed + 99), s.shard_of(s.clients - 1), s.ds, ec);
  fl::evasion_poison_client* pp = poisoner.get();
  owned.push_back(std::move(poisoner));
  std::vector<fl::fl_client*> clients;
  for (auto& c : owned) clients.push_back(c.get());
  run_rounds(server, clients, s, fl::aggregation_rule::fedavg);
  return {fl::replay_attack_rate(server.global_model(), pp->replay_set(), pp->craft_attempts()),
          models::accuracy(server.global_model(), s.ds.test_images(), s.ds.test_labels()),
          static_cast<std::int64_t>(pp->replay_set().size()), pp->craft_attempts()};
}

}  // namespace

int main() {
  const bench::scale s;
  s.print("Extension — poisoning/backdoor vs aggregation rules and PELTA");

  const data::dataset ds = bench::make_scaled_dataset("cifar10_like", s);
  fed_setup setup{ds, {}, 4, 4, {}};
  setup.task.image_size = ds.config().image_size;
  setup.task.channels = ds.config().channels;
  setup.task.classes = ds.config().classes;
  setup.lc.epochs = 2;
  setup.lc.batch_size = 16;
  setup.lc.lr = 3e-3f;

  // ---- Part A: backdoor vs aggregation rules -----------------------------------
  fl::backdoor_config bd;
  bd.target_class = 0;
  bd.boost = static_cast<float>(setup.clients);  // cancel the FedAvg dilution

  struct row {
    const char* label;
    fl::aggregation_rule rule;
    float boost;
  };
  const row rows[] = {
      {"FedAvg, no boost", fl::aggregation_rule::fedavg, 1.0f},
      {"FedAvg, model replacement", fl::aggregation_rule::fedavg, bd.boost},
      {"coordinate median", fl::aggregation_rule::coordinate_median, bd.boost},
      {"trimmed mean", fl::aggregation_rule::trimmed_mean, bd.boost},
      {"norm-clipped mean", fl::aggregation_rule::norm_clipped_mean, bd.boost},
  };

  text_table ta;
  ta.set_header({"Server aggregation", "Backdoor success", "Clean acc."});
  float fedavg_boosted = 0.0f, best_robust = 1.0f;
  for (const row& r : rows) {
    fl::backdoor_config cfg = bd;
    cfg.boost = r.boost;
    const backdoor_outcome o = run_backdoor(setup, cfg, r.rule, s.seed);
    ta.add_row({r.label, pct(o.success), pct(o.clean)});
    if (std::string{r.label} == "FedAvg, model replacement") fedavg_boosted = o.success;
    if (r.rule != fl::aggregation_rule::fedavg) best_robust = std::min(best_robust, o.success);
    std::printf("  %-28s done (success %s, clean %s)\n", r.label, pct(o.success).c_str(),
                pct(o.clean).c_str());
    std::fflush(stdout);
  }
  std::printf("\nPart A — trojan-trigger backdoor, %lld clients, %lld rounds:\n%s",
              static_cast<long long>(setup.clients), static_cast<long long>(setup.rounds),
              ta.to_string().c_str());
  const bool a_holds = fedavg_boosted > 0.5f && best_robust < fedavg_boosted - 0.3f;
  std::printf("shape check (boosted FedAvg embeds; robust rules mitigate): %s\n\n",
              a_holds ? "HOLDS" : "VIOLATED");

  // ---- Part B: evasion-based poisoning, open vs PELTA ----------------------------
  const evasion_outcome open = run_evasion(setup, /*shielded=*/false, s.seed + 7);
  const evasion_outcome shielded = run_evasion(setup, /*shielded=*/true, s.seed + 7);

  text_table tb;
  tb.set_header({"Compromised device", "Adv. found / probes", "Replay success", "Clean acc."});
  tb.add_row({"open white box",
              std::to_string(open.found) + " / " + std::to_string(open.attempts),
              pct(open.attack_rate), pct(open.clean)});
  tb.add_row({"PELTA-shielded",
              std::to_string(shielded.found) + " / " + std::to_string(shielded.attempts),
              pct(shielded.attack_rate), pct(shielded.clean)});
  std::printf("Part B — evasion-based poisoning (Bhagoji et al. scenario):\n%s",
              tb.to_string().c_str());
  const bool b_holds =
      open.found > shielded.found && open.attack_rate > shielded.attack_rate + 0.1f;
  std::printf("shape check (PELTA defangs the probe): %s\n", b_holds ? "HOLDS" : "VIOLATED");

  std::printf("\nReading: server-side robust aggregation and client-side PELTA attack\n"
              "different links of the same kill chain — the rules blunt what reaches\n"
              "the aggregate, PELTA stops the adversarial examples from being found\n"
              "at all (the paper's framing of evasion as the basis of poisoning).\n");
  return a_holds && b_holds ? 0 : 1;
}
