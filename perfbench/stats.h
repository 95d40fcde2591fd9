// Order statistics, interval coverage and open-loop schedule maths of the
// benchmark. Header-only; selftest.cpp checks it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <stdexcept>
#include <vector>

#include "bench/common.h"

namespace perfbench {

/// Percentile q in [0, 1] by the repository's one rule, bench::percentile
/// (nearest rank: the smallest value with at least a share q of the sample
/// at or below it). Throws on an empty sample, where bench::percentile
/// returns 0: a percentile of nothing is a benchmark bug here.
inline double percentile(const std::vector<double>& v, double q) {
  if (v.empty()) throw std::invalid_argument("percentile of an empty sample");
  if (!(q >= 0.0 && q <= 1.0)) throw std::invalid_argument("percentile q outside [0, 1]");
  return pelta::bench::percentile(v, q);
}

inline double median(const std::vector<double>& v) { return percentile(v, 0.5); }

inline double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

/// Mean of the middle 80% of a sample: moves smoothly with the share of slow
/// operations, yet a few host stalls do not move it. Throws on an empty sample.
inline double trimmed_mean(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("trimmed mean of an empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 10;
  double s = 0.0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) s += v[i];
  return s / static_cast<double>(v.size() - 2 * cut);
}

/// Percentile q of each fixed time window, then the median across windows:
/// the typical window's tail. `at_ns[i]` places `values[i]` in a window of
/// `window_ns` from the earliest stamp; windows holding fewer than
/// `min_count` values are skipped. A burst of host stalls confined to a few
/// windows moves this little, while a slowdown in most windows moves it
/// fully. Throws if no window qualifies.
inline double windowed_percentile(const std::vector<std::int64_t>& at_ns,
                                  const std::vector<double>& values, std::int64_t window_ns,
                                  double q, std::size_t min_count) {
  if (at_ns.size() != values.size() || at_ns.empty() || window_ns <= 0)
    throw std::invalid_argument("windowed_percentile needs matching, non-empty samples");
  const std::int64_t origin = *std::min_element(at_ns.begin(), at_ns.end());
  std::vector<std::vector<double>> windows;
  for (std::size_t i = 0; i < at_ns.size(); ++i) {
    const auto w = static_cast<std::size_t>((at_ns[i] - origin) / window_ns);
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(values[i]);
  }
  std::vector<double> per_window;
  for (std::vector<double>& w : windows)
    if (w.size() >= min_count) per_window.push_back(percentile(std::move(w), q));
  if (per_window.empty()) throw std::invalid_argument("no window holds enough samples");
  return median(std::move(per_window));
}

/// Reference time around `at`: the median of the readings taken within
/// `half_window_ns` of it, or the nearest reading when none is. Throws
/// without readings.
inline double reference_at(const std::vector<std::int64_t>& ref_at_ns,
                           const std::vector<double>& ref_ms, std::int64_t at,
                           std::int64_t half_window_ns) {
  if (ref_at_ns.size() != ref_ms.size() || ref_ms.empty())
    throw std::invalid_argument("reference_at needs matching, non-empty readings");
  std::vector<double> near;
  std::size_t nearest = 0;
  for (std::size_t i = 0; i < ref_ms.size(); ++i) {
    const std::int64_t d = std::llabs(ref_at_ns[i] - at);
    if (d <= half_window_ns) near.push_back(ref_ms[i]);
    if (d < std::llabs(ref_at_ns[nearest] - at)) nearest = i;
  }
  return near.empty() ? ref_ms[nearest] : median(near);
}

/// Half-open time interval [lo, hi) in nanoseconds.
struct interval {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
};

/// Length of the union of `parts` after clipping each to `clip`. Overlapping
/// parts (children that ran concurrently) are counted once.
inline std::int64_t covered_ns(std::vector<interval> parts, interval clip) {
  for (interval& p : parts) {
    p.lo = std::max(p.lo, clip.lo);
    p.hi = std::min(p.hi, clip.hi);
  }
  std::erase_if(parts, [](const interval& p) { return p.hi <= p.lo; });
  std::sort(parts.begin(), parts.end(),
            [](const interval& a, const interval& b) { return a.lo < b.lo; });
  std::int64_t total = 0;
  std::int64_t run_lo = 0;
  std::int64_t run_hi = -1;
  bool open = false;
  for (const interval& p : parts) {
    if (open && p.lo <= run_hi) {
      run_hi = std::max(run_hi, p.hi);
      continue;
    }
    if (open) total += run_hi - run_lo;
    run_lo = p.lo;
    run_hi = p.hi;
    open = true;
  }
  if (open) total += run_hi - run_lo;
  return total;
}

/// Self time of a span: its duration minus the part its children cover.
inline std::int64_t self_ns(interval span, const std::vector<interval>& children) {
  return (span.hi - span.lo) - covered_ns(children, span);
}

/// Whether a span's self time plus its children's full durations adds up to
/// the span within `tolerance` (a share of the span). This fails when a child
/// starts before or ends after its parent, or when two children overlap:
/// the signs that spans were attributed to the wrong operation.
inline bool children_tile(interval span, const std::vector<interval>& children,
                          double tolerance) {
  const auto dur = static_cast<double>(span.hi - span.lo);
  double total = static_cast<double>(self_ns(span, children));
  for (const interval& c : children) total += static_cast<double>(c.hi - c.lo);
  return std::fabs(total - dur) <= tolerance * std::max(dur, 1.0);
}

/// Poisson arrival offsets (ns from the start of the window) at `rate_per_s`
/// over `seconds`: exponential gaps drawn from a generator seeded by `seed`,
/// so the same seed gives the same schedule.
inline std::vector<std::int64_t> poisson_schedule(double rate_per_s, double seconds,
                                                  std::uint64_t seed) {
  if (!(rate_per_s > 0.0) || !(seconds > 0.0))
    throw std::invalid_argument("poisson_schedule needs a positive rate and window");
  std::mt19937_64 gen{seed};
  std::exponential_distribution<double> gap{rate_per_s};
  std::vector<std::int64_t> due;
  double t = 0.0;
  for (;;) {
    t += gap(gen);
    if (t >= seconds) break;
    due.push_back(static_cast<std::int64_t>(std::llround(t * 1e9)));
  }
  return due;
}

/// Open-loop latency of each request in ms: from when it was due, not from
/// when the generator sent it, so a stall is charged to every request it
/// delays. `due` and `done` are absolute ns; done < 0 marks "unanswered"
/// and is skipped.
inline std::vector<double> latencies_from_due_ms(const std::vector<std::int64_t>& due,
                                                 const std::vector<std::int64_t>& done) {
  if (due.size() != done.size()) throw std::invalid_argument("due/done size mismatch");
  std::vector<double> out;
  out.reserve(due.size());
  for (std::size_t i = 0; i < due.size(); ++i)
    if (done[i] >= 0) out.push_back(static_cast<double>(done[i] - due[i]) / 1e6);
  return out;
}

}  // namespace perfbench
