// pelta-lint CLI: walk <repo-root>/src and enforce the project invariants
// (rules R1-R7 plus the L1/L2 layering pass, see lint.h / layering.h). Exit
// code 1 on any finding, so the CTest `lint` label and the CI
// static-analysis job gate on it directly. `--json <path>` additionally
// writes the machine-readable report the CI job uploads as an artifact.
#include <cstdio>
#include <fstream>
#include <string>

#include "lint.h"

namespace {

constexpr const char* k_rules_doc =
    "pelta-lint rules (suppress with `// pelta-lint: allow(<rule>) <reason>`):\n"
    "  R1  no raw float +=/-= accumulation in src/tensor/kernels.cpp,\n"
    "      src/tensor/conv.cpp, src/fl/aggregation.{h,cpp} outside\n"
    "      detail::fmadd / double-widened accumulators\n"
    "  R2  no std::vector / new / resize() in the arena-governed hot files\n"
    "      (src/tensor/kernels.cpp, src/tensor/conv.cpp)\n"
    "  R3  no steady_clock/system_clock/high_resolution_clock,\n"
    "      std::random_device, rand()/srand() in src/ outside the rng core\n"
    "      (src/tensor/rng.h)\n"
    "  R4  no std::thread / std::jthread / std::async outside\n"
    "      src/tensor/parallel.{h,cpp}\n"
    "  R5  no std::unordered_map / std::unordered_set in src/fl or src/serve\n"
    "  R6  no raw std::mutex / std::condition_variable / std lock types\n"
    "      outside src/core/sync.h (use the annotated pelta::sync wrappers),\n"
    "      and every sync::mutex member must be named by a PELTA_GUARDED_BY /\n"
    "      PELTA_REQUIRES-family annotation in its file\n"
    "  R7  no std::exp / std::tanh / expf / tanhf in src/tensor, src/autodiff,\n"
    "      src/nn or src/models outside src/tensor/mathfn.h (use fn::exp /\n"
    "      fn::tanh; suppress where a double-precision call is intended)\n"
    "  L1  cross-subsystem #include edge not declared in the layering table\n"
    "      of docs/ARCHITECTURE.md (suppressible per include line)\n"
    "  L2  layering declaration defects: missing/unparseable table, cycle in\n"
    "      the declared DAG, stale declared edge, subsystem-set mismatch,\n"
    "      vocabulary header including non-vocabulary (not suppressible)\n";

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--rules") {
    std::fputs(k_rules_doc, stdout);
    return 0;
  }
  std::string root;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (root.empty() && !arg.empty() && arg[0] != '-') {
      root = arg;
    } else {
      root.clear();
      break;
    }
  }
  if (root.empty()) {
    std::fprintf(stderr,
                 "usage: pelta-lint <repo-root> [--json <out.json>] | pelta-lint --rules\n");
    return 2;
  }
  pelta::lint::tree_report report;
  try {
    report = pelta::lint::lint_tree(root);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pelta-lint: %s\n", e.what());
    return 2;
  }
  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::binary);
    out << pelta::lint::to_json(report);
    if (!out) {
      std::fprintf(stderr, "pelta-lint: cannot write %s\n", json_path.c_str());
      return 2;
    }
  }
  for (const pelta::lint::finding& f : report.findings)
    std::fprintf(stderr, "%s:%d: [%s] %s\n", f.file.c_str(), f.line, f.rule.c_str(),
                 f.message.c_str());
  std::printf("pelta-lint: %d files scanned, %zu finding%s, %d suppressed\n",
              report.files_scanned, report.findings.size(),
              report.findings.size() == 1 ? "" : "s", report.suppressed);
  return report.findings.empty() ? 0 : 1;
}
