// Extension bench (§VII future work): "apply PELTA along with existing
// software defenses [47] to assess their combined benefits against a
// sophisticated attacker."
//
// Grid: input-transformation chain x {software only, PELTA underneath} x
// attacker {PGD+BPDA, EOT-PGD} — the sophisticated attacker is Athalye et
// al.'s: identity backward through shattered transforms, expectation over
// randomized ones.
//
// Expected shape:
//   * software-only defenses fall to the matched counter-attack (BPDA for
//     quantize/jpeg, EOT for resize/noise) — robust accuracy stays low;
//   * PELTA alone already mitigates (the §V result);
//   * PELTA + software is no worse than PELTA alone — the "supplementary
//     hardware-reliant aid" composition argument of §II.
#include "attacks/eot.h"
#include "bench/common.h"
#include "core/table.h"

int main() {
  using namespace pelta;
  const bench::scale s;
  s.print("Extension — PELTA composed with software defenses");

  const data::dataset ds = bench::make_scaled_dataset("cifar10_like", s);
  const attacks::suite_params params = attacks::params_for_dataset("cifar10_like");
  auto victim = bench::train_zoo_model("ViT-B/16", ds, s);

  const char* chains[] = {"none", "quantize", "jpeg", "resize", "noise", "quantize+jpeg"};

  text_table t;
  t.set_header({"Defense chain", "Clean acc.", "SW only vs PGD", "SW only vs EOT-PGD",
                "+PELTA vs PGD", "+PELTA vs EOT-PGD"});

  float pelta_only_pgd = -1.0f, best_sw_only = 0.0f, combined_min = 1.0f;
  for (const char* spec : chains) {
    const defenses::preprocessor_chain chain = defenses::make_chain(spec);
    // Randomized chains deploy with a 5-pass majority vote: without it,
    // the defense's own inference-time randomness flips borderline samples
    // and the flip would be mis-attributed to the attacker.
    const defenses::defended_model dm{*victim, chain, chain.randomized() ? 5 : 1};
    const float clean = dm.accuracy(ds.test_images(), ds.test_labels(), s.seed);

    attacks::defended_eval_config cfg;
    cfg.kind = attacks::attack_kind::pgd;
    cfg.params = params;
    cfg.max_samples = s.samples;
    cfg.seed = s.seed;

    const auto run = [&](const attacks::oracle_factory& inner, std::int64_t eot) {
      attacks::defended_eval_config c = cfg;
      c.eot_samples = eot;
      return attacks::evaluate_attack_defended(dm, ds, c, inner);
    };

    const attacks::robust_eval sw_pgd = run(attacks::clear_oracle_factory(*victim), 1);
    const attacks::robust_eval sw_eot = run(attacks::clear_oracle_factory(*victim), 8);
    const attacks::robust_eval hw_pgd = run(attacks::shielded_oracle_factory(*victim), 1);
    const attacks::robust_eval hw_eot = run(attacks::shielded_oracle_factory(*victim), 8);

    t.add_row({spec, pct(clean), pct(sw_pgd.robust_accuracy),
               pct(sw_eot.robust_accuracy), pct(hw_pgd.robust_accuracy),
               pct(hw_eot.robust_accuracy)});

    if (std::string{spec} == "none") pelta_only_pgd = hw_pgd.robust_accuracy;
    if (std::string{spec} != "none") {
      best_sw_only = std::max(best_sw_only,
                              std::min(sw_pgd.robust_accuracy, sw_eot.robust_accuracy));
      combined_min = std::min(combined_min,
                              std::min(hw_pgd.robust_accuracy, hw_eot.robust_accuracy));
    }
    std::printf("  chain %-14s done\n", spec);
    std::fflush(stdout);
  }

  std::printf("\n");
  std::printf("%s", t.to_string().c_str());

  const bool software_alone_falls = best_sw_only < 0.5f;
  const bool composition_no_worse = combined_min >= pelta_only_pgd - 0.15f;
  std::printf("\npaper-shape check: software-only falls to matched attack: %s\n",
              software_alone_falls ? "HOLDS" : "VIOLATED");
  std::printf("paper-shape check: PELTA+software >= PELTA alone (tolerance 15pt): %s\n",
              composition_no_worse ? "HOLDS" : "VIOLATED");
  return software_alone_falls && composition_no_worse ? 0 : 1;
}
