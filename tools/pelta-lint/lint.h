// pelta-lint — the project-invariant static checker.
//
// The repo's correctness story rests on invariants that are documented in
// docs/ARCHITECTURE.md but would otherwise only be enforced by reviewer
// memory: bit-identity across PELTA_THREADS requires every float
// accumulation in the kernel files to route through detail::fmadd or a
// double-widened accumulator; zero steady-state allocation requires the
// arena-governed hot files to stay off std::vector/new/resize; the
// simulated-clock planners and seeded RNG must never read the wall clock
// or an OS entropy source; all concurrency must go through the single
// tensor/parallel pool; and the deterministic fl/serve aggregation and
// report paths must not touch unordered containers (iteration order is
// nondeterministic across libstdc++ versions and hash seeds).
//
// This checker tokenizes the source tree (comments and string literals are
// scrubbed before matching, so prose can mention std::thread freely) and
// enforces those invariants as named, individually-suppressible rules:
//
//   R1  no raw float +=/-= accumulation in src/tensor/kernels.cpp,
//       src/tensor/conv.cpp, src/fl/aggregation.cpp outside
//       detail::fmadd / double-widened (Kahan-class) accumulators.
//       Loop-header stepping (for (...; ...; i += 4)) and integer or
//       pointer arithmetic are recognized and allowed.
//   R2  no std::vector / new / resize() in the arena-governed hot files
//       (src/tensor/kernels.cpp, src/tensor/conv.cpp) — hot-path
//       workspaces come from scratch_arena.
//   R3  no wall clock (steady_clock / system_clock /
//       high_resolution_clock) and no std::random_device / rand() /
//       srand() anywhere in src/ except the seeded RNG core
//       (src/tensor/rng.h). bench/, tests/ and examples/ are outside the
//       scanned tree and may measure wall time freely.
//   R4  no std::thread / std::jthread / std::async outside
//       src/tensor/parallel.{h,cpp} — concurrency goes through the pool.
//   R5  no std::unordered_map / std::unordered_set in src/fl or
//       src/serve (deterministic aggregation/report paths). This
//       over-approximates "no iteration" on purpose: a point-lookup-only
//       use is fine but must say so via a suppression.
//   R6  lock discipline stays compiler-checkable: raw std::mutex /
//       std::condition_variable (and friends) are forbidden in src/
//       outside core/sync.h — locks must be the annotated pelta::sync
//       wrappers so Clang's -Wthread-safety can see them — and every
//       sync::mutex *member* (trailing-underscore convention) must be
//       named by at least one PELTA_GUARDED_BY / PELTA_REQUIRES-family
//       annotation in the same file: a mutex that guards nothing is
//       either dead or hiding an unannotated field.
//   R7  no std::exp / std::tanh / expf / tanhf in src/tensor, src/autodiff,
//       src/nn or src/models outside src/tensor/mathfn.h — the float
//       paths go through fn::exp / fn::tanh, whose bits do not depend on
//       the host's libm. A double-precision call that is meant as one
//       rides a reasoned suppression.
//
// Besides the per-file rules, the tree walk runs a *layering* pass
// (layering.h): every `#include "sub/..."` edge is collapsed onto the
// subsystem graph and checked against the DAG declared in
// docs/ARCHITECTURE.md. Undeclared cross-subsystem edges are rule L1
// (suppressible per include line); structural problems — a cycle in the
// declared DAG, a stale declared edge, doc drift — are rule L2.
//
// Suppression syntax (reason mandatory, same line or the line above):
//   ... flagged code ...  // pelta-lint: allow(R4) worker owns the enclave
// A suppression with an empty reason is itself a finding.
#pragma once

#include <string>
#include <vector>

namespace pelta::lint {

struct finding {
  std::string file;     ///< repo-relative path, forward slashes
  int line = 0;         ///< 1-based
  std::string rule;     ///< "R1".."R7", "L1"/"L2", or "suppression"
  std::string message;  ///< human-readable diagnostic
};

struct file_report {
  std::vector<finding> findings;
  /// Findings silenced by a well-formed allow(), kept for --json output.
  std::vector<finding> suppressed_findings;
  int suppressed = 0;  ///< == suppressed_findings.size()
};

/// One `#include "..."` directive pointing inside src/, as seen by the
/// layering pass. `target` is the include path as written ("fl/network.h").
struct include_edge {
  std::string from;       ///< repo-relative includer ("src/serve/server.cpp")
  int line = 0;           ///< 1-based line of the directive
  std::string target;     ///< quoted include path, forward slashes
  bool suppressed = false;  ///< an allow(L1) with reason covers this line
};

/// Rule ids that apply to a repo-relative path ("src/fl/async.cpp").
/// Paths outside src/ get no rules.
std::vector<std::string> applicable_rules(const std::string& rel_path);

/// Lint one in-memory source. `rel_path` selects the applicable rules, so
/// fixture snippets can masquerade as any tree location. When `edges` is
/// non-null, every quoted include directive is appended to it (with its
/// allow(L1) suppression state) for the layering pass.
file_report lint_source(const std::string& rel_path, const std::string& content,
                        std::vector<include_edge>* edges = nullptr);

struct tree_report {
  std::vector<finding> findings;
  std::vector<finding> suppressed_findings;  ///< for --json; counts in `suppressed`
  std::vector<include_edge> edges;           ///< every in-src include edge observed
  int files_scanned = 0;
  int suppressed = 0;
};

/// Walk <root>/src and lint every *.h / *.cpp file, then run the layering
/// pass against the DAG declared in <root>/docs/ARCHITECTURE.md.
tree_report lint_tree(const std::string& root);

/// Machine-readable report (satellite of the CI static-analysis job):
/// {"files_scanned": N, "suppressed": N, "findings": [{"file", "line",
/// "rule", "message", "suppressed"}...]} — suppressed findings included,
/// flagged true, so the artifact shows the whole picture.
std::string to_json(const tree_report& report);

}  // namespace pelta::lint
