#include "lint.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "layering.h"

namespace pelta::lint {

namespace {

bool is_ident_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '_';
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

// ---------------------------------------------------------------------------
// Scrubbing: replace comments and string/char literals with spaces (newlines
// kept so offsets map to the same lines), collecting pelta-lint suppression
// annotations from // comments along the way.
// ---------------------------------------------------------------------------

struct suppression {
  int line = 0;                    ///< line the comment sits on
  bool own_line = false;           ///< comment is alone on its line: covers line+1
  std::vector<std::string> rules;  ///< allow(R1,R4) -> {"R1","R4"}
  bool well_formed = false;        ///< allow(...) parsed
  bool has_reason = false;         ///< non-empty reason text after the ')'
};

struct scrubbed_source {
  std::string text;  ///< same length/lines as the input, code only
  std::vector<suppression> suppressions;
};

// Parses "<ws>pelta-lint: allow(R1,R2) reason..." out of one // comment body.
// Returns false if the comment does not mention pelta-lint at all.
bool parse_suppression_comment(const std::string& body, suppression& out) {
  const std::string marker = "pelta-lint:";
  const std::size_t m = body.find(marker);
  if (m == std::string::npos) return false;
  std::size_t p = m + marker.size();
  while (p < body.size() && std::isspace(static_cast<unsigned char>(body[p]))) ++p;
  const std::string allow = "allow(";
  if (body.compare(p, allow.size(), allow) != 0) return true;  // malformed
  p += allow.size();
  const std::size_t close = body.find(')', p);
  if (close == std::string::npos) return true;  // malformed
  std::string rule;
  for (std::size_t i = p; i <= close; ++i) {
    const char c = body[i];
    if (c == ',' || c == ')') {
      rule = trim(rule);
      if (!rule.empty()) out.rules.push_back(rule);
      rule.clear();
    } else {
      rule.push_back(c);
    }
  }
  out.well_formed = !out.rules.empty();
  out.has_reason = !trim(body.substr(close + 1)).empty();
  return true;
}

scrubbed_source scrub(const std::string& src) {
  scrubbed_source out;
  out.text.assign(src.size(), ' ');
  int line = 1;
  bool line_has_code = false;
  std::size_t i = 0;
  const std::size_t n = src.size();
  auto keep = [&](std::size_t pos) { out.text[pos] = src[pos]; };
  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      out.text[i] = '\n';
      ++line;
      line_has_code = false;
      ++i;
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      std::size_t end = src.find('\n', i);
      if (end == std::string::npos) end = n;
      suppression s;
      s.line = line;
      s.own_line = !line_has_code;
      if (parse_suppression_comment(src.substr(i + 2, end - i - 2), s))
        out.suppressions.push_back(s);
      i = end;  // newline handled by the main loop
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      std::size_t end = src.find("*/", i + 2);
      end = (end == std::string::npos) ? n : end + 2;
      for (std::size_t j = i; j < end; ++j)
        if (src[j] == '\n') {
          out.text[j] = '\n';
          ++line;
          line_has_code = false;
        }
      i = end;
      continue;
    }
    if (c == 'R' && i + 1 < n && src[i + 1] == '"') {
      // Raw string literal: R"delim( ... )delim"
      std::size_t open = src.find('(', i + 2);
      if (open != std::string::npos) {
        const std::string delim = src.substr(i + 2, open - i - 2);
        const std::string closer = ")" + delim + "\"";
        std::size_t end = src.find(closer, open + 1);
        end = (end == std::string::npos) ? n : end + closer.size();
        for (std::size_t j = i; j < end; ++j)
          if (src[j] == '\n') {
            out.text[j] = '\n';
            ++line;
          }
        line_has_code = true;
        i = end;
        continue;
      }
    }
    // A ' between identifier chars is a digit separator (1'000'000), not a
    // character literal.
    const bool digit_separator = c == '\'' && i > 0 && is_ident_char(src[i - 1]);
    if ((c == '"' || c == '\'') && !digit_separator) {
      const char q = c;
      std::size_t j = i + 1;
      while (j < n && src[j] != q) {
        if (src[j] == '\\' && j + 1 < n) ++j;
        if (src[j] == '\n') ++line;  // unterminated literal: stay line-accurate
        ++j;
      }
      line_has_code = true;
      i = (j < n) ? j + 1 : n;
      continue;
    }
    if (!std::isspace(static_cast<unsigned char>(c))) line_has_code = true;
    keep(i);
    ++i;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Small lexical helpers over the scrubbed text.
// ---------------------------------------------------------------------------

std::vector<std::size_t> line_starts(const std::string& s) {
  std::vector<std::size_t> starts{0};
  for (std::size_t i = 0; i < s.size(); ++i)
    if (s[i] == '\n') starts.push_back(i + 1);
  return starts;
}

int line_of(const std::vector<std::size_t>& starts, std::size_t pos) {
  auto it = std::upper_bound(starts.begin(), starts.end(), pos);
  return static_cast<int>(it - starts.begin());
}

// Occurrences of `word` with identifier boundaries. `allow_colon_prefix`
// lets qualified uses (std::rand) still match call-style patterns.
std::vector<std::size_t> find_word(const std::string& s, const std::string& word,
                                   bool allow_colon_prefix = true) {
  std::vector<std::size_t> hits;
  std::size_t pos = 0;
  while ((pos = s.find(word, pos)) != std::string::npos) {
    const bool front_ok =
        pos == 0 || (!is_ident_char(s[pos - 1]) && (allow_colon_prefix || s[pos - 1] != ':'));
    const std::size_t after = pos + word.size();
    const bool back_ok = after >= s.size() || !is_ident_char(s[after]);
    if (front_ok && back_ok) hits.push_back(pos);
    pos += word.size();
  }
  return hits;
}

// Char ranges [open, close] of every for(...) header, so loop stepping like
// `i += MR` is never mistaken for accumulation.
std::vector<std::pair<std::size_t, std::size_t>> for_header_ranges(const std::string& s) {
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  for (std::size_t pos : find_word(s, "for", /*allow_colon_prefix=*/false)) {
    std::size_t p = pos + 3;
    while (p < s.size() && std::isspace(static_cast<unsigned char>(s[p]))) ++p;
    if (p >= s.size() || s[p] != '(') continue;
    int depth = 0;
    std::size_t q = p;
    for (; q < s.size(); ++q) {
      if (s[q] == '(') ++depth;
      if (s[q] == ')' && --depth == 0) break;
    }
    ranges.emplace_back(p, q);
  }
  return ranges;
}

bool in_ranges(const std::vector<std::pair<std::size_t, std::size_t>>& ranges, std::size_t pos) {
  for (const auto& [a, b] : ranges)
    if (pos >= a && pos <= b) return true;
  return false;
}

// ---------------------------------------------------------------------------
// R1: declared-type classification for accumulation left-hand sides.
// ---------------------------------------------------------------------------

enum class decl_cat {
  unknown,
  float_value,    // float x        -> accumulation target, flagged
  float_pointer,  // float* p       -> p += n fine, p[i] += flagged
  double_value,   // double acc     -> widened accumulator, allowed
  double_pointer, // double* p      -> p[i] += allowed
  integral,       // ints, sizes, ptrdiff, bool, pointers to them
};

bool is_integral_type(const std::string& t) {
  static const std::array<const char*, 22> names = {
      "int",      "unsigned", "long",     "short",         "bool",          "char",
      "size_t",   "int8_t",   "int16_t",  "int32_t",       "int64_t",       "uint8_t",
      "uint16_t", "uint32_t", "uint64_t", "ptrdiff_t",     "intptr_t",      "uintptr_t",
      "byte",     "uint_fast32_t", "int_fast32_t", "ssize_t"};
  std::string base = t;
  if (starts_with(base, "std::")) base = base.substr(5);
  return std::find(names.begin(), names.end(), base) != names.end();
}

// Reads the token that ends at `end` (exclusive), walking backwards.
// Returns the token and sets `begin` to its first char.
std::string token_before(const std::string& s, std::size_t end, std::size_t& begin) {
  std::size_t e = end;
  while (e > 0 && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  if (e == 0) {
    begin = 0;
    return "";
  }
  std::size_t b = e;
  if (is_ident_char(s[e - 1])) {
    while (b > 0 && is_ident_char(s[b - 1])) --b;
    // absorb a std:: / chrono:: qualification into one token
    while (b >= 2 && s[b - 1] == ':' && s[b - 2] == ':') {
      std::size_t q = b - 2;
      while (q > 0 && is_ident_char(s[q - 1])) --q;
      b = q;
    }
  } else {
    b = e - 1;
  }
  begin = b;
  return s.substr(b, e - b);
}

// Best-effort declared type of `ident` anywhere in the file: find an
// occurrence preceded by (const) <type> (*|&)*. Unknown stays unknown — R1
// treats unknown conservatively (flagged, suppressible).
decl_cat decl_cat_of(const std::string& s, const std::string& ident) {
  for (std::size_t pos : find_word(s, ident, /*allow_colon_prefix=*/false)) {
    bool pointer = false;
    std::size_t cursor = pos;
    std::string tok;
    for (int hops = 0; hops < 4; ++hops) {
      std::size_t b = 0;
      tok = token_before(s, cursor, b);
      if (tok == "*") {
        pointer = true;
        cursor = b;
        continue;
      }
      if (tok == "&" || tok == "const" || tok == "constexpr" || tok == "inline" ||
          tok == "static") {
        cursor = b;
        continue;
      }
      break;
    }
    if (tok == "double") return pointer ? decl_cat::double_pointer : decl_cat::double_value;
    if (tok == "float") return pointer ? decl_cat::float_pointer : decl_cat::float_value;
    if (is_integral_type(tok)) return decl_cat::integral;
  }
  return decl_cat::unknown;
}

// The accumulation LHS ending just before the compound operator at `op`.
struct lhs_info {
  std::string base;        ///< base identifier ("" if unreadable)
  bool element = false;    ///< subscripted or dereferenced: targets an element
  bool qualified = false;  ///< member/qualified access — type unknowable here
};

lhs_info read_lhs(const std::string& s, std::size_t op) {
  lhs_info out;
  std::size_t e = op;
  while (e > 0 && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  // peel trailing subscripts: a[i][j]
  while (e > 0 && s[e - 1] == ']') {
    int depth = 0;
    std::size_t q = e;
    while (q > 0) {
      --q;
      if (s[q] == ']') ++depth;
      if (s[q] == '[' && --depth == 0) break;
    }
    out.element = true;
    e = q;
    while (e > 0 && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  }
  std::size_t b = e;
  while (b > 0 && is_ident_char(s[b - 1])) --b;
  if (b == e) return out;  // (*p) += … or weirder: unreadable, stays conservative
  out.base = s.substr(b, e - b);
  if (b > 0 && s[b - 1] == '*') out.element = true;
  if (b > 0 && (s[b - 1] == '.' || s[b - 1] == ':')) out.qualified = true;
  if (b > 1 && s[b - 1] == '>' && s[b - 2] == '-') out.qualified = true;
  return out;
}

// ---------------------------------------------------------------------------
// Rule scoping.
// ---------------------------------------------------------------------------

// The kernel tiers' lane-generic bodies and per-tier TUs are kernel code
// like kernels.cpp itself.
bool is_kernel_tier(const std::string& p) {
  return p == "src/tensor/tier_body.h" || starts_with(p, "src/tensor/tier_");
}
bool r1_applies(const std::string& p) {
  return p == "src/tensor/kernels.cpp" || p == "src/tensor/conv.cpp" ||
         p == "src/tensor/quantized_tensor.cpp" || p == "src/fl/aggregation.cpp" ||
         p == "src/fl/aggregation.h" || is_kernel_tier(p);
}
bool r2_applies(const std::string& p) {
  return p == "src/tensor/kernels.cpp" || p == "src/tensor/conv.cpp" || is_kernel_tier(p);
}
bool r3_applies(const std::string& p) {
  return starts_with(p, "src/") && p != "src/tensor/rng.h";
}
// core/simclock is the one file allowed to NAME time (`now`, `clock`):
// it owns the simulated-clock vocabulary the way rng.h owns entropy.
// It is NOT exempt from the wall-clock API bans — the simulated clock is
// pure arithmetic over stamps and never consults the host's time.
bool r3_simclock(const std::string& p) {
  return p == "src/core/simclock.h" || p == "src/core/simclock.cpp";
}
bool r4_applies(const std::string& p) {
  return starts_with(p, "src/") && p != "src/tensor/parallel.h" &&
         p != "src/tensor/parallel.cpp";
}
bool r5_applies(const std::string& p) {
  return starts_with(p, "src/fl/") || starts_with(p, "src/serve/");
}
// core/sync.h is where the annotated wrappers live (it has to touch the raw
// std:: primitives once); core/thread_annotations.h defines the macros.
// Everyone else must go through the wrappers — same exemption pattern as
// rng.h for R3 and parallel.{h,cpp} for R4.
bool r6_applies(const std::string& p) {
  return starts_with(p, "src/") && p != "src/core/sync.h" &&
         p != "src/core/thread_annotations.h";
}

// The float layers route exp/tanh through tensor/mathfn.h, which is the
// one place allowed to name the libm functions (in its contract prose).
bool r7_applies(const std::string& p) {
  return (starts_with(p, "src/tensor/") || starts_with(p, "src/autodiff/") ||
          starts_with(p, "src/nn/") || starts_with(p, "src/models/")) &&
         p != "src/tensor/mathfn.h";
}

}  // namespace

std::vector<std::string> applicable_rules(const std::string& rel_path) {
  std::string p = rel_path;
  std::replace(p.begin(), p.end(), '\\', '/');
  std::vector<std::string> rules;
  if (r1_applies(p)) rules.push_back("R1");
  if (r2_applies(p)) rules.push_back("R2");
  if (r3_applies(p)) rules.push_back("R3");
  if (r4_applies(p)) rules.push_back("R4");
  if (r5_applies(p)) rules.push_back("R5");
  if (r6_applies(p)) rules.push_back("R6");
  if (r7_applies(p)) rules.push_back("R7");
  return rules;
}

file_report lint_source(const std::string& rel_path, const std::string& content,
                        std::vector<include_edge>* edges) {
  std::string path = rel_path;
  std::replace(path.begin(), path.end(), '\\', '/');

  const scrubbed_source sc = scrub(content);
  const std::string& s = sc.text;
  const std::vector<std::size_t> starts = line_starts(s);

  auto l1_suppressed_on = [&](int line) {
    for (const suppression& sup : sc.suppressions) {
      if (!sup.well_formed || !sup.has_reason) continue;
      if (sup.line != line && !(sup.own_line && sup.line + 1 == line)) continue;
      if (std::find(sup.rules.begin(), sup.rules.end(), std::string("L1")) != sup.rules.end())
        return true;
    }
    return false;
  };
  if (edges) {
    // Include directives live in the *original* text (the quoted path is a
    // string literal, scrubbed to spaces), but the '#' survives scrubbing,
    // which is how a directive quoted inside a comment is told apart.
    std::size_t pos = 0;
    while ((pos = content.find("#include", pos)) != std::string::npos) {
      const std::size_t here = pos;
      pos += 8;
      if (s[here] != '#') continue;  // commented-out include
      std::size_t q = content.find_first_of("\"<\n", here + 8);
      if (q == std::string::npos || content[q] != '"') continue;  // <system> header
      const std::size_t close = content.find('"', q + 1);
      if (close == std::string::npos) continue;
      include_edge e;
      e.from = path;
      e.line = line_of(starts, here);
      e.target = content.substr(q + 1, close - q - 1);
      std::replace(e.target.begin(), e.target.end(), '\\', '/');
      e.suppressed = l1_suppressed_on(e.line);
      edges->push_back(e);
    }
  }

  std::vector<finding> raw;
  auto add = [&](std::size_t pos, const char* rule, std::string msg) {
    raw.push_back(finding{path, line_of(starts, pos), rule, std::move(msg)});
  };

  // ---- R1: raw float accumulation ----------------------------------------
  if (r1_applies(path)) {
    const auto headers = for_header_ranges(s);
    for (const char* op : {"+=", "-="}) {
      std::size_t pos = 0;
      while ((pos = s.find(op, pos)) != std::string::npos) {
        const std::size_t here = pos;
        pos += 2;
        if (in_ranges(headers, here)) continue;  // loop stepping
        const lhs_info lhs = read_lhs(s, here);
        decl_cat cat = decl_cat::unknown;
        if (!lhs.base.empty() && !lhs.qualified) cat = decl_cat_of(s, lhs.base);
        const bool ok =
            lhs.element
                ? (cat == decl_cat::integral || cat == decl_cat::double_pointer ||
                   cat == decl_cat::double_value)
                : (cat == decl_cat::integral || cat == decl_cat::double_value ||
                   cat == decl_cat::double_pointer || cat == decl_cat::float_pointer);
        if (ok) continue;
        add(here, "R1",
            "raw float `" + std::string(op) + "` accumulation" +
                (lhs.base.empty() ? "" : " into `" + lhs.base + "`") +
                " — route through detail::fmadd or a double-widened accumulator "
                "(bit-identity across PELTA_THREADS depends on one rounding "
                "sequence per element)");
      }
    }
  }

  // ---- R2: allocation in arena-governed hot files ------------------------
  if (r2_applies(path)) {
    for (std::size_t pos : find_word(s, "std::vector"))
      add(pos, "R2",
          "std::vector in an arena-governed hot file — take workspace from "
          "scratch_arena::local() (zero steady-state allocation contract)");
    for (std::size_t pos : find_word(s, "new", /*allow_colon_prefix=*/false))
      add(pos, "R2", "raw `new` in an arena-governed hot file — use scratch_arena");
    {
      std::size_t pos = 0;
      while ((pos = s.find("resize", pos)) != std::string::npos) {
        const std::size_t here = pos;
        pos += 6;
        if (here == 0 || !(s[here - 1] == '.' || (here > 1 && s[here - 1] == '>' && s[here - 2] == '-')))
          continue;
        std::size_t after = here + 6;
        while (after < s.size() && std::isspace(static_cast<unsigned char>(s[after]))) ++after;
        if (after < s.size() && s[after] == '(')
          add(here, "R2", "container resize() in an arena-governed hot file — use scratch_arena");
      }
    }
  }

  // ---- R3: wall clock / OS entropy ---------------------------------------
  if (r3_applies(path)) {
    for (const char* clock : {"steady_clock", "system_clock", "high_resolution_clock"})
      for (std::size_t pos : find_word(s, clock))
        add(pos, "R3",
            std::string(clock) +
                " in src/ — planners and the serving runtime run on the simulated "
                "clock; wall timing belongs in bench/ or behind a suppression");
    for (std::size_t pos : find_word(s, "random_device"))
      add(pos, "R3",
          "std::random_device in src/ — all randomness is seeded through the rng core "
          "(src/tensor/rng.h) so runs replay exactly");
    for (const char* fn : {"rand", "srand"}) {
      for (std::size_t pos : find_word(s, fn)) {
        std::size_t after = pos + std::string(fn).size();
        while (after < s.size() && std::isspace(static_cast<unsigned char>(s[after]))) ++after;
        if (after < s.size() && s[after] == '(')
          add(pos, "R3",
              std::string(fn) + "() in src/ — unseeded libc RNG breaks replayability; "
              "use the rng core (src/tensor/rng.h)");
      }
    }
    // Wall-clock and sleep APIs are banned in EVERY R3 file — core/simclock
    // included: the simulated clock is pure arithmetic over stamps, so even
    // its implementation has no business consulting the host's time.
    for (const char* api : {"chrono", "clock_gettime", "gettimeofday", "timespec_get",
                            "nanosleep", "usleep"})
      for (std::size_t pos : find_word(s, api))
        add(pos, "R3",
            std::string(api) +
                " in src/ — wall-clock/sleep APIs never belong in the library; "
                "everything runs on the simulated clock (core/simclock.h)");
    // Time vocabulary: core/simclock is the one place allowed to name time.
    // Everyone else speaks in explicit stamps (submit_ns, at_ns, close_ns)
    // and routes ordering through core::event_queue, so a bare `now` or
    // `clock` identifier elsewhere is either a wall-clock habit leaking in
    // or a private event loop growing back.
    if (!r3_simclock(path)) {
      for (const char* word : {"now", "clock"})
        for (std::size_t pos : find_word(s, word))
          add(pos, "R3",
              std::string("`") + word +
                  "` in src/ — time vocabulary lives in core/simclock only; name "
                  "stamps explicitly (at_ns, submit_ns, ...) elsewhere");
    }
  }

  // ---- R4: threads outside the pool --------------------------------------
  if (r4_applies(path)) {
    for (const char* t : {"std::thread", "std::jthread", "std::async"})
      for (std::size_t pos : find_word(s, t))
        add(pos, "R4",
            std::string(t) +
                " outside src/tensor/parallel — all concurrency goes through the "
                "single PELTA_THREADS pool (width, nesting and shutdown rules "
                "live there)");
  }

  // ---- R5: unordered containers in deterministic fl/serve paths ----------
  if (r5_applies(path)) {
    for (const char* t : {"std::unordered_map", "std::unordered_set"})
      for (std::size_t pos : find_word(s, t))
        add(pos, "R5",
            std::string(t) +
                " in a deterministic aggregation/report path — iteration order is "
                "nondeterministic; use std::map / a sorted vector, or suppress "
                "with a reason if access is point-lookup only");
  }

  // ---- R6: raw locks / unguarded sync::mutex members ---------------------
  if (r6_applies(path)) {
    for (const char* t :
         {"std::mutex", "std::timed_mutex", "std::recursive_mutex",
          "std::recursive_timed_mutex", "std::shared_mutex", "std::shared_timed_mutex",
          "std::condition_variable", "std::condition_variable_any", "std::lock_guard",
          "std::scoped_lock", "std::unique_lock", "std::shared_lock"})
      for (std::size_t pos : find_word(s, t))
        add(pos, "R6",
            std::string(t) +
                " outside src/core/sync.h — locks must be the annotated pelta::sync "
                "wrappers so Clang's -Wthread-safety can see every acquire (a raw "
                "std primitive is invisible to the analysis)");

    // Every sync::mutex *member* (trailing-underscore convention) must be
    // named by at least one PELTA_* annotation in the same file: a mutex
    // nothing is annotated against is dead or hiding an unannotated field.
    std::vector<std::string> annotation_args;
    for (const char* macro :
         {"PELTA_GUARDED_BY", "PELTA_PT_GUARDED_BY", "PELTA_REQUIRES", "PELTA_ACQUIRE",
          "PELTA_RELEASE", "PELTA_TRY_ACQUIRE", "PELTA_EXCLUDES", "PELTA_RETURN_CAPABILITY"}) {
      for (std::size_t pos : find_word(s, macro, /*allow_colon_prefix=*/false)) {
        std::size_t p = pos + std::string(macro).size();
        while (p < s.size() && std::isspace(static_cast<unsigned char>(s[p]))) ++p;
        if (p >= s.size() || s[p] != '(') continue;
        int depth = 0;
        std::size_t q = p;
        for (; q < s.size(); ++q) {
          if (s[q] == '(') ++depth;
          if (s[q] == ')' && --depth == 0) break;
        }
        annotation_args.push_back(s.substr(p + 1, q - p - 1));
      }
    }
    auto annotated = [&](const std::string& name) {
      for (const std::string& args : annotation_args)
        if (!find_word(args, name, /*allow_colon_prefix=*/false).empty()) return true;
      return false;
    };
    for (std::size_t pos : find_word(s, "sync::mutex")) {
      std::size_t p = pos + std::string("sync::mutex").size();
      while (p < s.size() && std::isspace(static_cast<unsigned char>(s[p]))) ++p;
      if (p < s.size() && (s[p] == '&' || s[p] == '*')) continue;  // param/return, not an owning member
      std::size_t b = p;
      while (p < s.size() && is_ident_char(s[p])) ++p;
      const std::string name = s.substr(b, p - b);
      if (name.empty() || name.back() != '_') continue;  // locals/statics: no member convention
      if (!annotated(name))
        add(pos, "R6",
            "sync::mutex member `" + name +
                "` is never named by a PELTA_GUARDED_BY / PELTA_REQUIRES-family "
                "annotation in this file — a mutex that guards nothing is dead "
                "or hiding an unannotated field");
    }
  }

  // ---- R7: libm exp/tanh in the float layers -----------------------------
  if (r7_applies(path)) {
    for (const char* fn : {"std::exp", "std::tanh", "expf", "tanhf"})
      for (std::size_t pos : find_word(s, fn))
        add(pos, "R7",
            std::string(fn) +
                " in a float layer — use fn::exp / fn::tanh (tensor/mathfn.h): libm "
                "results differ across hosts and glibc versions, and the bit-identity "
                "contract must not; suppress with a reason where a double-precision "
                "call is intended");
  }

  // ---- suppressions -------------------------------------------------------
  file_report report;
  for (const suppression& sup : sc.suppressions) {
    if (!sup.well_formed)
      report.findings.push_back(
          {path, sup.line, "suppression",
           "malformed pelta-lint comment — expected `// pelta-lint: allow(<rule>) <reason>`"});
    else if (!sup.has_reason)
      report.findings.push_back(
          {path, sup.line, "suppression",
           "suppression without a reason — `// pelta-lint: allow(" + sup.rules.front() +
               ") <reason>` (the reason is mandatory)"});
  }
  auto suppressed_by = [&](const finding& f) {
    for (const suppression& sup : sc.suppressions) {
      if (!sup.well_formed || !sup.has_reason) continue;
      const bool covers_line = sup.line == f.line || (sup.own_line && sup.line + 1 == f.line);
      if (!covers_line) continue;
      if (std::find(sup.rules.begin(), sup.rules.end(), f.rule) != sup.rules.end()) return true;
    }
    return false;
  };
  for (finding& f : raw) {
    if (suppressed_by(f))
      report.suppressed_findings.push_back(std::move(f));
    else
      report.findings.push_back(std::move(f));
  }
  const auto by_position = [](const finding& a, const finding& b) {
    return std::tie(a.line, a.rule, a.message) < std::tie(b.line, b.rule, b.message);
  };
  std::sort(report.findings.begin(), report.findings.end(), by_position);
  std::sort(report.suppressed_findings.begin(), report.suppressed_findings.end(), by_position);
  report.suppressed = static_cast<int>(report.suppressed_findings.size());
  return report;
}

tree_report lint_tree(const std::string& root) {
  namespace fs = std::filesystem;
  tree_report out;
  const fs::path base = fs::path(root) / "src";
  std::vector<fs::path> files;
  for (const auto& entry : fs::recursive_directory_iterator(base)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext == ".h" || ext == ".hpp" || ext == ".cpp") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& f : files) {
    std::ifstream in(f, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string rel =
        fs::relative(f, fs::path(root)).generic_string();
    file_report r = lint_source(rel, buf.str(), &out.edges);
    ++out.files_scanned;
    out.suppressed += r.suppressed;
    out.findings.insert(out.findings.end(), r.findings.begin(), r.findings.end());
    out.suppressed_findings.insert(out.suppressed_findings.end(), r.suppressed_findings.begin(),
                                   r.suppressed_findings.end());
  }

  // Layering pass: collapse the observed include edges onto the subsystem
  // graph and check them against the DAG declared in docs/ARCHITECTURE.md.
  std::vector<std::string> observed;
  for (const auto& entry : fs::directory_iterator(base))
    if (entry.is_directory()) observed.push_back(entry.path().filename().generic_string());
  std::sort(observed.begin(), observed.end());
  std::string doc;
  {
    std::ifstream in(fs::path(root) / "docs" / "ARCHITECTURE.md", std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    doc = buf.str();
  }
  const layering_report lr = check_layering(parse_layering_doc(doc), out.edges, observed);
  out.findings.insert(out.findings.end(), lr.findings.begin(), lr.findings.end());
  out.suppressed_findings.insert(out.suppressed_findings.end(), lr.suppressed_findings.begin(),
                                 lr.suppressed_findings.end());
  out.suppressed += static_cast<int>(lr.suppressed_findings.size());
  return out;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace

std::string to_json(const tree_report& report) {
  std::ostringstream o;
  o << "{\n  \"files_scanned\": " << report.files_scanned
    << ",\n  \"suppressed\": " << report.suppressed << ",\n  \"findings\": [";
  bool first = true;
  const auto emit = [&](const finding& f, bool suppressed) {
    o << (first ? "\n" : ",\n") << "    {\"file\": \"" << json_escape(f.file)
      << "\", \"line\": " << f.line << ", \"rule\": \"" << json_escape(f.rule)
      << "\", \"message\": \"" << json_escape(f.message)
      << "\", \"suppressed\": " << (suppressed ? "true" : "false") << "}";
    first = false;
  };
  for (const finding& f : report.findings) emit(f, false);
  for (const finding& f : report.suppressed_findings) emit(f, true);
  o << (first ? "]" : "\n  ]") << "\n}\n";
  return o.str();
}

}  // namespace pelta::lint
