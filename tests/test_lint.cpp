// pelta-lint's own suite: fixture snippets under tests/lint_fixtures/
// exercise each rule's hit, miss, allowlist and suppression paths, and a
// self-check asserts the real src/ tree is clean — so this suite and the
// `lint_pelta_tree` CTest gate can never drift apart: a rule change that
// would fail the tree gate fails here first, with gtest-grade diagnostics.
//
// The fixture files are data, not translation units: they are read at run
// time and linted under a masqueraded repo-relative path, which is what
// selects the applicable rules (see lint::applicable_rules).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "layering.h"
#include "lint.h"

namespace {

using pelta::lint::file_report;
using pelta::lint::finding;

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(PELTA_LINT_FIXTURES) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

file_report lint_fixture(const std::string& name, const std::string& as_path) {
  return pelta::lint::lint_source(as_path, read_fixture(name));
}

std::vector<int> lines_for_rule(const file_report& r, const std::string& rule) {
  std::vector<int> lines;
  for (const finding& f : r.findings)
    if (f.rule == rule) lines.push_back(f.line);
  return lines;
}

// ---------------------------------------------------------------------------
// Rule scoping
// ---------------------------------------------------------------------------

TEST(LintScoping, KernelFilesGetTheAccumulationAndArenaRules) {
  using pelta::lint::applicable_rules;
  EXPECT_EQ(applicable_rules("src/tensor/kernels.cpp"),
            (std::vector<std::string>{"R1", "R2", "R3", "R4", "R6", "R7"}));
  EXPECT_EQ(applicable_rules("src/tensor/conv.cpp"),
            (std::vector<std::string>{"R1", "R2", "R3", "R4", "R6", "R7"}));
  EXPECT_EQ(applicable_rules("src/fl/aggregation.cpp"),
            (std::vector<std::string>{"R1", "R3", "R4", "R5", "R6"}));
  // The quantization vocabulary is fp32 on its dequantize side, so it owes
  // the fmadd policy — but not the arena rule (it only packs weights).
  EXPECT_EQ(applicable_rules("src/tensor/quantized_tensor.cpp"),
            (std::vector<std::string>{"R1", "R3", "R4", "R6", "R7"}));
}

TEST(LintScoping, AllowlistedCoresLoseExactlyTheirRule) {
  using pelta::lint::applicable_rules;
  // rng core may use OS entropy; it still may not spawn threads or raw-lock.
  EXPECT_EQ(applicable_rules("src/tensor/rng.h"),
            (std::vector<std::string>{"R4", "R6", "R7"}));
  // the pool implements concurrency; it still may not read the wall clock.
  EXPECT_EQ(applicable_rules("src/tensor/parallel.cpp"),
            (std::vector<std::string>{"R3", "R6", "R7"}));
  EXPECT_EQ(applicable_rules("src/serve/batcher.cpp"),
            (std::vector<std::string>{"R3", "R4", "R5", "R6"}));
  // the annotated-wrapper home is the one place allowed to touch the raw
  // primitives; the macro home defines, not uses, the annotations.
  EXPECT_EQ(applicable_rules("src/core/sync.h"), (std::vector<std::string>{"R3", "R4"}));
  EXPECT_EQ(applicable_rules("src/core/thread_annotations.h"),
            (std::vector<std::string>{"R3", "R4"}));
}

TEST(LintScoping, OutsideSrcNothingApplies) {
  EXPECT_TRUE(pelta::lint::applicable_rules("bench/bench_serving.cpp").empty());
  EXPECT_TRUE(pelta::lint::applicable_rules("tests/test_parallel.cpp").empty());
  EXPECT_TRUE(pelta::lint::applicable_rules("tools/pelta-lint/lint.cpp").empty());
}

// ---------------------------------------------------------------------------
// R1: raw float accumulation
// ---------------------------------------------------------------------------

TEST(LintR1, FlagsFloatVarAndFloatElementAccumulation) {
  const file_report r = lint_fixture("r1_hit.cpp", "src/tensor/kernels.cpp");
  EXPECT_EQ(lines_for_rule(r, "R1"), (std::vector<int>{4, 5}));
  EXPECT_EQ(r.suppressed, 0);
}

TEST(LintR1, AllowsLoopSteppingDoublesIntsPointersAndFmadd) {
  const file_report r = lint_fixture("r1_miss.cpp", "src/tensor/kernels.cpp");
  EXPECT_TRUE(r.findings.empty())
      << r.findings.front().message << " at line " << r.findings.front().line;
}

TEST(LintR1, WellFormedSuppressionsSilenceBothForms) {
  const file_report r = lint_fixture("r1_suppressed.cpp", "src/tensor/conv.cpp");
  EXPECT_TRUE(r.findings.empty());
  EXPECT_EQ(r.suppressed, 2);  // trailing form + own-line form
}

TEST(LintR1, SuppressionWithoutReasonDoesNotSuppress) {
  const file_report r =
      lint_fixture("r1_suppressed_no_reason.cpp", "src/tensor/conv.cpp");
  EXPECT_EQ(lines_for_rule(r, "R1").size(), 1u);          // the violation stands
  EXPECT_EQ(lines_for_rule(r, "suppression").size(), 1u);  // and the bare allow is diagnosed
  EXPECT_EQ(r.suppressed, 0);
}

TEST(LintR1, DoesNotApplyOutsideTheAccumulationFiles) {
  const file_report r = lint_fixture("r1_hit.cpp", "src/nn/layers.cpp");
  EXPECT_TRUE(lines_for_rule(r, "R1").empty());
}

TEST(LintR1, FlagsFloatDriftOnTheDequantizeSide) {
  const file_report r =
      lint_fixture("quantize_r1_hit.cpp", "src/tensor/quantized_tensor.cpp");
  EXPECT_EQ(lines_for_rule(r, "R1"), (std::vector<int>{7}));
}

TEST(LintR1, AllowsInt32CodeAccumulationInTheQuantizeFile) {
  const file_report r =
      lint_fixture("quantize_r1_miss.cpp", "src/tensor/quantized_tensor.cpp");
  EXPECT_TRUE(r.findings.empty())
      << r.findings.front().message << " at line " << r.findings.front().line;
}

// ---------------------------------------------------------------------------
// R2: allocation in arena-governed hot files
// ---------------------------------------------------------------------------

TEST(LintR2, FlagsVectorResizeAndNew) {
  const file_report r = lint_fixture("r2_hit.cpp", "src/tensor/conv.cpp");
  EXPECT_EQ(lines_for_rule(r, "R2"), (std::vector<int>{4, 5, 6}));
}

TEST(LintR2, ArenaUseAndProseMentionsAreClean) {
  const file_report r = lint_fixture("r2_miss.cpp", "src/tensor/kernels.cpp");
  EXPECT_TRUE(r.findings.empty())
      << r.findings.front().message << " at line " << r.findings.front().line;
}

TEST(LintR2, OnlyGovernsTheHotFiles) {
  // aggregation.cpp legitimately uses std::vector — R2 must not reach it.
  const file_report r = lint_fixture("r2_hit.cpp", "src/fl/aggregation.cpp");
  EXPECT_TRUE(lines_for_rule(r, "R2").empty());
}

// ---------------------------------------------------------------------------
// R3: wall clock / OS entropy
// ---------------------------------------------------------------------------

TEST(LintR3, FlagsEveryClockAndEntropySource) {
  const file_report r = lint_fixture("r3_hit.cpp", "src/fl/async.cpp");
  // Line 1 is `#include <chrono>`; lines 6-8 each carry three findings
  // (chrono + the named clock + the bare `now` call) — the token bans are
  // independent, so a `std::chrono::steady_clock::now()` line hits thrice.
  EXPECT_EQ(lines_for_rule(r, "R3"),
            (std::vector<int>{1, 6, 6, 6, 7, 7, 7, 8, 8, 8, 9, 10, 11}));
}

TEST(LintR3, SimulatedClockAndIdentifierBoundariesAreClean) {
  const file_report r = lint_fixture("r3_miss.cpp", "src/serve/batcher.cpp");
  EXPECT_TRUE(r.findings.empty())
      << r.findings.front().message << " at line " << r.findings.front().line;
}

TEST(LintR3, RngCoreIsAllowlisted) {
  const file_report r = lint_fixture("r3_hit.cpp", "src/tensor/rng.h");
  EXPECT_TRUE(lines_for_rule(r, "R3").empty());
}

TEST(LintR3, WallClockApisHitEverywhereIncludingSimclock) {
  // core/simclock may NAME time but never read it: the vocabulary lines
  // (7, 8, 17) go quiet under the simclock path while <chrono> and the
  // POSIX wall/sleep APIs still hit.
  const file_report cpp = lint_fixture("r3_time_hit.cpp", "src/core/simclock.cpp");
  EXPECT_EQ(lines_for_rule(cpp, "R3"), (std::vector<int>{1, 12, 13, 14, 15, 16}));
  const file_report hdr = lint_fixture("r3_time_hit.cpp", "src/core/simclock.h");
  EXPECT_EQ(lines_for_rule(hdr, "R3"), (std::vector<int>{1, 12, 13, 14, 15, 16}));
}

TEST(LintR3, TimeVocabularyIsAllowedOnlyInSimclock) {
  // The same fixture under any other src/ path adds the bare `now` /
  // `clock` identifier hits (line 17 carries both, hence the duplicate).
  const file_report r = lint_fixture("r3_time_hit.cpp", "src/serve/cluster.cpp");
  EXPECT_EQ(lines_for_rule(r, "R3"),
            (std::vector<int>{1, 7, 8, 12, 13, 14, 15, 16, 17, 17}));
}

TEST(LintR3, TimeVocabularyRespectsIdentifierBoundaries) {
  // now_ns / sim_clock_view / clocked / asynchronous stay clean: the word
  // match demands identifier boundaries, and comments/strings are scrubbed.
  const file_report r = lint_fixture("r3_time_miss.cpp", "src/serve/batcher.cpp");
  EXPECT_TRUE(r.findings.empty())
      << r.findings.front().message << " at line " << r.findings.front().line;
}

// ---------------------------------------------------------------------------
// R4: threads outside the pool
// ---------------------------------------------------------------------------

TEST(LintR4, FlagsThreadAndAsync) {
  const file_report r = lint_fixture("r4_hit.cpp", "src/serve/server.cpp");
  EXPECT_EQ(lines_for_rule(r, "R4"), (std::vector<int>{5, 6}));
}

TEST(LintR4, PoolImplementationIsAllowlisted) {
  const file_report r = lint_fixture("r4_hit.cpp", "src/tensor/parallel.cpp");
  EXPECT_TRUE(lines_for_rule(r, "R4").empty());
}

TEST(LintR4, ArchitecturalExceptionRidesASuppression) {
  const file_report r = lint_fixture("r4_suppressed.cpp", "src/tee/hotcalls.h");
  EXPECT_TRUE(r.findings.empty());
  EXPECT_EQ(r.suppressed, 1);
}

// ---------------------------------------------------------------------------
// R5: unordered containers in fl/serve
// ---------------------------------------------------------------------------

TEST(LintR5, FlagsUnorderedContainersInFlAndServe) {
  EXPECT_EQ(lines_for_rule(lint_fixture("r5_hit.cpp", "src/fl/federation.cpp"), "R5"),
            (std::vector<int>{5, 6}));
  EXPECT_EQ(lines_for_rule(lint_fixture("r5_hit.cpp", "src/serve/server.cpp"), "R5"),
            (std::vector<int>{5, 6}));
}

TEST(LintR5, OrderedContainersAreClean) {
  const file_report r = lint_fixture("r5_miss.cpp", "src/fl/federation.cpp");
  EXPECT_TRUE(r.findings.empty());
}

TEST(LintR5, OtherSubsystemsMayUseHashMaps) {
  const file_report r = lint_fixture("r5_hit.cpp", "src/models/zoo.cpp");
  EXPECT_TRUE(lines_for_rule(r, "R5").empty());
}

// ---------------------------------------------------------------------------
// R6: lock discipline (raw primitives + unguarded sync::mutex members)
// ---------------------------------------------------------------------------

TEST(LintR6, FlagsRawPrimitivesAndUnguardedMembers) {
  const file_report r = lint_fixture("r6_hit.cpp", "src/serve/server.cpp");
  EXPECT_EQ(lines_for_rule(r, "R6"), (std::vector<int>{6, 7, 8}));
  EXPECT_EQ(r.suppressed, 0);
}

TEST(LintR6, AnnotatedWrappersProseAndNonMembersAreClean) {
  const file_report r = lint_fixture("r6_miss.cpp", "src/serve/server.cpp");
  EXPECT_TRUE(r.findings.empty())
      << r.findings.front().message << " at line " << r.findings.front().line;
}

TEST(LintR6, DocumentedExceptionsRideSuppressions) {
  const file_report r = lint_fixture("r6_suppressed.cpp", "src/autodiff/ops_norm.cpp");
  EXPECT_TRUE(r.findings.empty());
  EXPECT_EQ(r.suppressed, 2);
}

TEST(LintR6, AnyAnnotationFamilyReferenceCountsAsGuarding) {
  // A mutex named only by EXCLUDES (a lock-ordering contract, no guarded
  // field of its own) is still disciplined.
  const std::string src =
      "#include \"core/sync.h\"\n"
      "class port {\n"
      "  void call() PELTA_EXCLUDES(client_mutex_);\n"
      "  mutable sync::mutex client_mutex_;\n"
      "};\n";
  const file_report r = pelta::lint::lint_source("src/tee/hotcalls.h", src);
  EXPECT_TRUE(lines_for_rule(r, "R6").empty());
}

TEST(LintR6, SyncHomeIsExemptByScope) {
  const file_report r = lint_fixture("r6_hit.cpp", "src/core/sync.h");
  EXPECT_TRUE(lines_for_rule(r, "R6").empty());
}

// ---------------------------------------------------------------------------
// R7: libm exp/tanh in the float layers
// ---------------------------------------------------------------------------

TEST(LintR7, FlagsLibmExpAndTanhQualifiedAndCStyle) {
  const file_report r = lint_fixture("r7_hit.cpp", "src/autodiff/ops_elementwise.cpp");
  EXPECT_EQ(lines_for_rule(r, "R7"), (std::vector<int>{4, 5, 6, 7}));
  EXPECT_EQ(r.suppressed, 0);
}

TEST(LintR7, MathfnCallsProseAndOtherLibmNamesAreClean) {
  const file_report r = lint_fixture("r7_miss.cpp", "src/nn/layers.cpp");
  EXPECT_TRUE(r.findings.empty())
      << r.findings.front().message << " at line " << r.findings.front().line;
}

TEST(LintR7, DoublePrecisionCallsRideSuppressions) {
  const file_report r = lint_fixture("r7_suppressed.cpp", "src/autodiff/ops_loss.cpp");
  EXPECT_TRUE(r.findings.empty());
  EXPECT_EQ(r.suppressed, 2);
}

TEST(LintR7, ScopeIsTheFloatLayersMinusMathfnHeader) {
  using pelta::lint::applicable_rules;
  for (const char* p : {"src/tensor/ops.cpp", "src/autodiff/ops_loss.cpp", "src/nn/layers.cpp",
                        "src/models/vit.cpp", "src/tensor/mathfn.cpp"}) {
    const std::vector<std::string> rules = applicable_rules(p);
    EXPECT_NE(std::find(rules.begin(), rules.end(), "R7"), rules.end()) << p;
  }
  // The header names libm in its contract prose; the simulated network's
  // double draws and the attacks are outside the float layers.
  for (const char* p : {"src/tensor/mathfn.h", "src/fl/network.cpp", "src/attacks/cw.cpp"})
    EXPECT_TRUE(lines_for_rule(lint_fixture("r7_hit.cpp", p), "R7").empty()) << p;
}

// ---------------------------------------------------------------------------
// Suppression syntax
// ---------------------------------------------------------------------------

TEST(LintSuppression, MalformedCommentsAreDiagnosed) {
  const file_report r = lint_fixture("malformed_suppression.cpp", "src/core/pelta.cpp");
  EXPECT_EQ(lines_for_rule(r, "suppression").size(), 2u);
}

TEST(LintSuppression, WrongRuleDoesNotSilence) {
  const std::string src =
      "void f(float* out, const float* a, long n) {\n"
      "  for (long i = 0; i < n; ++i)\n"
      "    out[i] += a[i];  // pelta-lint: allow(R2) wrong rule named\n"
      "}\n";
  const file_report r = pelta::lint::lint_source("src/tensor/conv.cpp", src);
  EXPECT_EQ(lines_for_rule(r, "R1").size(), 1u);
  EXPECT_EQ(r.suppressed, 0);
}

TEST(LintSuppression, MultiRuleAllowCoversEachNamedRule) {
  const std::string src =
      "#include <vector>\n"
      "// pelta-lint: allow(R1,R2) fixture: own-line list covers the next line\n"
      "std::vector<float> scratch;\n"                                // R2, suppressed
      "void f(float* out, const float* a, long n) {\n"
      "  for (long i = 0; i < n; ++i)\n"
      "    out[i] += a[i];  // pelta-lint: allow(R2,R1) trailing list\n"  // R1, suppressed
      "}\n";
  const file_report r = pelta::lint::lint_source("src/tensor/conv.cpp", src);
  EXPECT_TRUE(r.findings.empty())
      << r.findings.front().rule << " at line " << r.findings.front().line;
  EXPECT_EQ(r.suppressed, 2);
}

TEST(LintSuppression, SuppressionsDoNotLeakAcrossLines) {
  // The own-line form covers exactly the next line — a violation two lines
  // down must still surface.
  const std::string src =
      "void f(float* out, const float* a, long n) {\n"
      "  // pelta-lint: allow(R1) only shields the line below\n"
      "  for (long i = 0; i < n; ++i)\n"
      "    out[i] += a[i];\n"
      "}\n";
  const file_report r = pelta::lint::lint_source("src/tensor/conv.cpp", src);
  EXPECT_EQ(lines_for_rule(r, "R1"), (std::vector<int>{4}));
  EXPECT_EQ(r.suppressed, 0);
}

// ---------------------------------------------------------------------------
// Layering: edge collection out of lint_source
// ---------------------------------------------------------------------------

TEST(LintEdges, CollectsQuotedIncludesWithSuppressionState) {
  std::vector<pelta::lint::include_edge> edges;
  pelta::lint::lint_source("src/alpha/user.cpp", read_fixture("l1_suppressed.cpp"), &edges);
  ASSERT_EQ(edges.size(), 2u);  // <vector> and the commented include are not edges
  EXPECT_EQ(edges[0].target, "beta/util.h");
  EXPECT_EQ(edges[0].line, 5);
  EXPECT_FALSE(edges[0].suppressed);
  EXPECT_EQ(edges[1].target, "gamma/exception.h");
  EXPECT_EQ(edges[1].line, 7);
  EXPECT_TRUE(edges[1].suppressed);
}

// ---------------------------------------------------------------------------
// Layering: declaration parsing and DAG checking
// ---------------------------------------------------------------------------

pelta::lint::layering_spec fixture_spec(const std::string& name) {
  return pelta::lint::parse_layering_doc(read_fixture(name));
}

const std::vector<std::string> k_fixture_subs{"alpha", "beta", "delta", "gamma"};

TEST(LintLayering, ParsesAnchoredTables) {
  const pelta::lint::layering_spec spec = fixture_spec("layering_doc.md");
  ASSERT_TRUE(spec.parsed) << spec.error;
  EXPECT_EQ(spec.subsystems,
            (std::vector<std::string>{"alpha", "beta", "gamma", "delta"}));
  EXPECT_EQ(spec.allowed, (std::vector<std::pair<std::string, std::string>>{
                              {"alpha", "beta"}, {"beta", "gamma"},
                              {"delta", "beta"}, {"delta", "gamma"}}));
  EXPECT_EQ(spec.vocabulary, (std::vector<std::string>{"src/gamma/vocab.h"}));
}

TEST(LintLayering, MissingAnchorsAreAnL2Finding) {
  const pelta::lint::layering_spec spec =
      pelta::lint::parse_layering_doc("# a page without the anchors\n");
  EXPECT_FALSE(spec.parsed);
  const pelta::lint::layering_report r =
      pelta::lint::check_layering(spec, {}, k_fixture_subs);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "L2");
  EXPECT_EQ(r.findings[0].file, "docs/ARCHITECTURE.md");
}

// Edges exercising every declared edge of layering_doc.md, so the checks
// below start from a stale-free baseline.
std::vector<pelta::lint::include_edge> all_declared_edges() {
  return {{"src/alpha/a.cpp", 3, "beta/util.h", false},
          {"src/beta/b.cpp", 4, "gamma/g.h", false},
          {"src/delta/d.cpp", 5, "beta/util.h", false},
          {"src/delta/d.cpp", 6, "gamma/g.h", false}};
}

TEST(LintLayering, DeclaredEdgesAndIntraSubsystemIncludesAreClean) {
  std::vector<pelta::lint::include_edge> edges = all_declared_edges();
  edges.push_back({"src/alpha/a.cpp", 9, "alpha/sibling.h", false});  // implicit
  const pelta::lint::layering_report r =
      pelta::lint::check_layering(fixture_spec("layering_doc.md"), edges, k_fixture_subs);
  EXPECT_TRUE(r.findings.empty())
      << r.findings.front().file << ": " << r.findings.front().message;
}

TEST(LintLayering, UndeclaredEdgeIsL1AtTheIncludeLine) {
  std::vector<pelta::lint::include_edge> edges = all_declared_edges();
  edges.push_back({"src/alpha/a.cpp", 12, "gamma/g.h", false});  // alpha->gamma undeclared
  const pelta::lint::layering_report r =
      pelta::lint::check_layering(fixture_spec("layering_doc.md"), edges, k_fixture_subs);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "L1");
  EXPECT_EQ(r.findings[0].file, "src/alpha/a.cpp");
  EXPECT_EQ(r.findings[0].line, 12);
}

TEST(LintLayering, SuppressedUndeclaredEdgeMovesToSuppressed) {
  std::vector<pelta::lint::include_edge> edges = all_declared_edges();
  edges.push_back({"src/alpha/a.cpp", 12, "gamma/g.h", true});
  const pelta::lint::layering_report r =
      pelta::lint::check_layering(fixture_spec("layering_doc.md"), edges, k_fixture_subs);
  EXPECT_TRUE(r.findings.empty());
  ASSERT_EQ(r.suppressed_findings.size(), 1u);
  EXPECT_EQ(r.suppressed_findings[0].rule, "L1");
}

TEST(LintLayering, VocabularyTargetsCreateNoEdgeButVocabularyMustStayPure) {
  std::vector<pelta::lint::include_edge> edges = all_declared_edges();
  // alpha -> gamma is undeclared, but vocab.h is a vocabulary header: no edge.
  edges.push_back({"src/alpha/a.cpp", 12, "gamma/vocab.h", false});
  // ...and the vocabulary header itself reaching into beta is an L2.
  edges.push_back({"src/gamma/vocab.h", 2, "beta/util.h", false});
  const pelta::lint::layering_report r =
      pelta::lint::check_layering(fixture_spec("layering_doc.md"), edges, k_fixture_subs);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "L2");
  EXPECT_EQ(r.findings[0].file, "src/gamma/vocab.h");
}

TEST(LintLayering, StaleDeclaredEdgeIsL2) {
  std::vector<pelta::lint::include_edge> edges = all_declared_edges();
  edges.pop_back();  // nobody uses delta -> gamma any more
  const pelta::lint::layering_report r =
      pelta::lint::check_layering(fixture_spec("layering_doc.md"), edges, k_fixture_subs);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "L2");
  EXPECT_NE(r.findings[0].message.find("stale"), std::string::npos);
  EXPECT_NE(r.findings[0].message.find("`delta` -> `gamma`"), std::string::npos);
}

TEST(LintLayering, DeclaredCycleIsL2) {
  const pelta::lint::layering_report r = pelta::lint::check_layering(
      fixture_spec("layering_cycle_doc.md"),
      {{"src/alpha/a.cpp", 3, "beta/b.h", false},
       {"src/beta/b.cpp", 3, "gamma/g.h", false},
       {"src/gamma/g.cpp", 3, "alpha/a.h", false}},
      {"alpha", "beta", "gamma"});
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "L2");
  EXPECT_NE(r.findings[0].message.find("cycle"), std::string::npos);
}

TEST(LintLayering, SubsystemSetMismatchIsL2BothWays) {
  // epsilon exists on disk but has no row; delta has a row but no directory.
  const pelta::lint::layering_report r = pelta::lint::check_layering(
      fixture_spec("layering_doc.md"), all_declared_edges(),
      {"alpha", "beta", "epsilon", "gamma"});
  std::vector<std::string> messages;
  for (const finding& f : r.findings) messages.push_back(f.message);
  ASSERT_EQ(messages.size(), 2u);
  EXPECT_NE(messages[0].find("delta"), std::string::npos);
  EXPECT_NE(messages[1].find("epsilon"), std::string::npos);
}

// ---------------------------------------------------------------------------
// JSON report (the CI artifact format)
// ---------------------------------------------------------------------------

TEST(LintJson, EscapesAndMarksSuppressionState) {
  pelta::lint::tree_report r;
  r.files_scanned = 2;
  r.findings.push_back({"src/a\"b\"\\c.cpp", 3, "R1", "line1\nline2\ttab"});
  r.suppressed_findings.push_back({"src/d.cpp", 7, "R4", "worker owns the enclave"});
  r.suppressed = 1;
  const std::string json = pelta::lint::to_json(r);
  EXPECT_NE(json.find("\"files_scanned\": 2"), std::string::npos);
  EXPECT_NE(json.find("a\\\"b\\\"\\\\c.cpp"), std::string::npos);
  EXPECT_NE(json.find("line1\\nline2\\ttab"), std::string::npos);
  EXPECT_NE(json.find("\"suppressed\": false}"), std::string::npos);
  EXPECT_NE(json.find("\"suppressed\": true}"), std::string::npos);
}

TEST(LintJson, EmptyReportIsValid) {
  const std::string json = pelta::lint::to_json(pelta::lint::tree_report{});
  EXPECT_NE(json.find("\"files_scanned\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"findings\": []"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Self-check: the real tree is clean. This is the same walk the
// lint_pelta_tree CTest entry gates on — if a sweep regression or a rule
// change breaks one, it breaks both, so they cannot drift apart.
// ---------------------------------------------------------------------------

TEST(LintTree, RealSourceTreeIsClean) {
  const pelta::lint::tree_report r = pelta::lint::lint_tree(PELTA_LINT_SOURCE_ROOT);
  EXPECT_GT(r.files_scanned, 100) << "walker lost the tree?";
  for (const finding& f : r.findings)
    ADD_FAILURE() << f.file << ":" << f.line << " [" << f.rule << "] " << f.message;
  // The documented architectural exceptions currently on record (hotcalls
  // worker thread, conv scatter-adds). More may be added; fewer means a
  // suppression went stale and should be deleted.
  EXPECT_GE(r.suppressed, 4);
  EXPECT_EQ(static_cast<int>(r.suppressed_findings.size()), r.suppressed);
}

TEST(LintTree, LiveIncludeGraphMatchesTheDeclaredDag) {
  // The declaration the tree gate enforces: docs/ARCHITECTURE.md parses, it
  // names exactly the src/ subsystems, and — via RealSourceTreeIsClean
  // producing zero L1/L2 — every live edge is declared and no declared edge
  // is stale. Parsed here explicitly so a doc-format regression gets a
  // pointed diagnostic instead of a generic tree failure.
  std::ifstream in(std::string(PELTA_LINT_SOURCE_ROOT) + "/docs/ARCHITECTURE.md",
                   std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  const pelta::lint::layering_spec spec = pelta::lint::parse_layering_doc(buf.str());
  ASSERT_TRUE(spec.parsed) << spec.error;
  std::set<std::string> declared(spec.subsystems.begin(), spec.subsystems.end());
  std::set<std::string> observed;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(PELTA_LINT_SOURCE_ROOT) + "/src"))
    if (entry.is_directory()) observed.insert(entry.path().filename().string());
  EXPECT_EQ(declared, observed);
  EXPECT_EQ(spec.vocabulary, (std::vector<std::string>{"src/core/thread_annotations.h",
                                                       "src/core/sync.h"}));

  const pelta::lint::tree_report r = pelta::lint::lint_tree(PELTA_LINT_SOURCE_ROOT);
  EXPECT_GT(r.edges.size(), 100u) << "include-edge collection lost the tree?";
}

}  // namespace
