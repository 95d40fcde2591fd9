// In-memory span recorder for the traced benchmark run.
//
// A span is one timed call into a layer: name, start, end and the span that
// caused it. Spans are kept in a mutex-guarded buffer and written out when
// the benchmark ends. With no active log every scoped_span is a no-op, so
// the untraced run pays one branch per span site.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

/// Monotonic wall clock in ns.
std::int64_t now_ns();

struct span {
  std::int64_t id = 0;
  std::int64_t parent = -1;  ///< -1: a root (one benchmark operation)
  const char* name = "";     ///< string literal
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  std::uint32_t thread = 0;  ///< small per-thread index, for trace viewers

  interval iv() const { return {t0, t1}; }
};

class span_log {
public:
  std::int64_t next_id() { return ids_.fetch_add(1, std::memory_order_relaxed) + 1; }
  void add(const span& s);
  std::vector<span> take();

private:
  std::atomic<std::int64_t> ids_{0};
  std::mutex mutex_;
  std::vector<span> spans_;  // guarded by mutex_
};

/// The log spans go to; null while tracing is off.
span_log* active_log();
void set_active_log(span_log* log);

/// Parent id meaning "the innermost open span on this thread".
inline constexpr std::int64_t k_inherit = -2;

/// RAII span. Nests under the calling thread's innermost open span unless
/// an explicit parent is given (work handed to a pool thread names the span
/// that caused it).
class scoped_span {
public:
  explicit scoped_span(const char* name, std::int64_t parent = k_inherit);
  ~scoped_span();
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

  std::int64_t id() const { return s_.id; }

private:
  span_log* log_;
  span s_;
  std::int64_t prev_current_ = -1;
};

/// Spans indexed for analysis: children by parent, self times.
class span_tree {
public:
  explicit span_tree(std::vector<span> spans);

  const std::vector<span>& spans() const { return spans_; }
  std::vector<const span*> children(std::int64_t id) const;
  std::vector<const span*> named(const char* name) const;
  std::int64_t self_ns(const span& s) const;
  /// Durations (ms) of every span called `name`.
  std::vector<double> durations_ms(const char* name) const;
  /// Self times (ms) of every span called `name`.
  std::vector<double> self_ms(const char* name) const;
  /// Whether every root called `root_name` is tiled by its direct children
  /// (stats.h children_tile) within `tolerance`; `worst` gets the largest
  /// mismatch seen as a share of the root's duration.
  bool roots_tiled(const char* root_name, double tolerance, double* worst) const;

private:
  std::vector<span> spans_;
  std::vector<std::vector<std::size_t>> kids_;  // by span position
  std::vector<std::size_t> pos_of_id_;           // id -> position (ids are dense)
};

/// Chrome trace-event JSON (chrome://tracing, Perfetto) of `spans`.
std::string chrome_trace_json(const std::vector<span>& spans);

}  // namespace perfbench
