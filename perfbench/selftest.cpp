// Self-test of the benchmark's own maths: percentiles, interval coverage and
// self time, span-tree tiling, and the open-loop schedule and lateness.
// Exits non-zero on the first failed check. Built next to perfbench:
//   cmake --build <dir> --target perfbench_selftest && <dir>/perfbench_selftest
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace {

int g_checks = 0;

void check(bool ok, const char* what) {
  ++g_checks;
  if (!ok) {
    std::fprintf(stderr, "perfbench_selftest: FAILED: %s\n", what);
    std::exit(1);
  }
}

bool near(double a, double b, double tol = 1e-9) { return std::fabs(a - b) <= tol; }

void test_percentile() {
  using perfbench::percentile;
  // Nearest rank (bench::percentile): the smallest value with at least a
  // share q of the sample at or below it, rank ceil(q * n).
  check(near(percentile({4, 1, 3, 2}, 0.5), 2.0), "median of an even sample is the lower middle");
  check(near(percentile({1, 2, 3, 4}, 0.25), 1.0), "first quartile of four");
  check(near(percentile({1, 2, 3, 4}, 0.9), 4.0), "p90 rounds the rank up");
  check(near(percentile({7}, 0.99), 7.0), "any percentile of one value is that value");
  check(near(percentile({5, 1, 9}, 0.0), 1.0) && near(percentile({5, 1, 9}, 1.0), 9.0),
        "q = 0 and q = 1 are the extremes");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  check(near(percentile(hundred, 0.9), 90.0), "p90 of 1..100");
  check(near(percentile(hundred, 0.91), 91.0), "p91 of 1..100");
  check(near(perfbench::median({1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2}), 1.0),
        "a slowed reference run does not move the median reading");
  // Reference readings: the median of those within the half window of an
  // op, else the nearest one.
  const std::vector<std::int64_t> ref_at{0, 10, 20, 100};
  const std::vector<double> ref_ms{1.0, 3.0, 2.0, 5.0};
  check(near(perfbench::reference_at(ref_at, ref_ms, 10, 10), 2.0),
        "reference: median of the readings in the window");
  check(near(perfbench::reference_at(ref_at, ref_ms, 60, 10), 2.0),
        "reference: nearest reading when the window holds none");
  check(near(perfbench::reference_at(ref_at, ref_ms, 90, 10), 5.0),
        "reference: a lone reading in the window");
  std::vector<double> stalled(20, 10.0);
  stalled[3] = 1000.0;  // one host stall
  stalled[7] = 1.0;
  check(near(perfbench::trimmed_mean(stalled), 10.0), "trimmed mean drops the extremes");
  check(near(perfbench::trimmed_mean({2, 4}), 3.0), "short samples keep every value");
  // Windowed: one bad window out of three does not move the median window.
  const std::vector<std::int64_t> at{0, 1, 2, 3, 10, 11, 12, 13, 20, 21, 22, 23};
  const std::vector<double> v{1, 1, 1, 2, 1, 1, 1, 2, 50, 60, 70, 80};
  check(near(perfbench::windowed_percentile(at, v, 10, 1.0, 4), 2.0),
        "windowed percentile takes the median window");
  bool threw = false;
  try {
    (void)perfbench::windowed_percentile(at, v, 10, 0.5, 5);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  check(threw, "windows below the minimum count are skipped");
  threw = false;
  try {
    (void)percentile({}, 0.5);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  check(threw, "percentile of nothing throws");
}

void test_self_time() {
  using perfbench::covered_ns;
  using perfbench::interval;
  using perfbench::self_ns;
  check(covered_ns({}, {0, 100}) == 0, "no children cover nothing");
  check(covered_ns({{10, 20}, {30, 50}}, {0, 100}) == 30, "disjoint children add up");
  check(covered_ns({{10, 40}, {30, 50}}, {0, 100}) == 40, "overlapping children count once");
  check(covered_ns({{10, 40}, {20, 30}}, {0, 100}) == 30, "a nested child adds nothing");
  check(covered_ns({{-10, 20}, {90, 150}}, {0, 100}) == 30, "children are clipped to the span");
  check(self_ns({0, 100}, {{10, 20}, {30, 50}}) == 70, "self = span - covered");
  check(self_ns({0, 100}, {{0, 100}}) == 0, "a fully covered span has no self time");
  // Concurrent children (pool threads): self time is what no child covers.
  check(self_ns({0, 100}, {{0, 60}, {10, 70}, {20, 50}}) == 30, "parallel children");

  check(perfbench::children_tile({0, 100}, {{10, 20}, {30, 50}}, 0.0),
        "sequential children inside the span tile it");
  check(!perfbench::children_tile({0, 100}, {{10, 60}, {40, 90}}, 0.01),
        "overlapping siblings do not tile");
  check(!perfbench::children_tile({0, 100}, {{90, 130}}, 0.01),
        "a child outliving its parent does not tile");
}

void test_span_tree() {
  perfbench::span_log log;
  perfbench::set_active_log(&log);
  std::int64_t root_id = -1;
  {
    const perfbench::scoped_span root{"op", -1};
    root_id = root.id();
    { const perfbench::scoped_span a{"child"}; }
    std::thread other{[root_id] { const perfbench::scoped_span b{"child", root_id}; }};
    other.join();
  }
  perfbench::set_active_log(nullptr);
  { const perfbench::scoped_span ignored{"off"}; }  // no log: not recorded

  const perfbench::span_tree t{log.take()};
  check(t.spans().size() == 3, "three spans recorded, none while tracing was off");
  check(t.children(root_id).size() == 2, "thread-local and explicit parents both attach");
  const perfbench::span& root = *t.named("op").front();
  std::int64_t kids = 0;
  for (const perfbench::span* c : t.children(root_id)) {
    check(c->t0 >= root.t0 && c->t1 <= root.t1, "children lie inside their parent");
    kids += c->t1 - c->t0;
  }
  check(t.self_ns(root) == (root.t1 - root.t0) - kids, "self time of sequential children");
  double worst = 1.0;
  check(t.roots_tiled("op", 1e-9, &worst) && worst < 1e-9, "sequential spans tile their root");
  check(perfbench::chrome_trace_json(t.spans()).find("\"ph\":\"X\"") != std::string::npos,
        "chrome trace export holds complete events");
}

void test_open_loop() {
  const std::vector<std::int64_t> a = perfbench::poisson_schedule(800.0, 20.0, 7);
  const std::vector<std::int64_t> b = perfbench::poisson_schedule(800.0, 20.0, 7);
  const std::vector<std::int64_t> c = perfbench::poisson_schedule(800.0, 20.0, 8);
  check(a == b, "same seed, same schedule");
  check(a != c, "another seed, another schedule");
  // 16000 expected arrivals; Poisson sd = sqrt(16000) ~ 126.
  check(std::fabs(static_cast<double>(a.size()) - 16000.0) < 6 * 126.5, "arrival count ~ rate");
  bool sorted = true;
  for (std::size_t i = 1; i < a.size(); ++i) sorted = sorted && a[i] >= a[i - 1];
  check(sorted && a.front() >= 0 && a.back() < 20'000'000'000, "arrivals ordered inside window");

  // Latency is measured from when a request was due: a stall that delays
  // sending (sent well after due) is charged to the request.
  const std::vector<std::int64_t> due{0, 1'000'000, 2'000'000};
  const std::vector<std::int64_t> done{500'000, 9'000'000, -1};
  const std::vector<double> lat = perfbench::latencies_from_due_ms(due, done);
  check(lat.size() == 2, "unanswered requests are skipped");
  check(near(lat[0], 0.5) && near(lat[1], 8.0), "latency counts from the due time");
  // Generator lateness is the same maths on send stamps.
  const std::vector<std::int64_t> sent{50'000, 1'020'000, 2'000'000};
  const std::vector<double> late = perfbench::latencies_from_due_ms(due, sent);
  check(near(perfbench::percentile(late, 0.99), 0.05, 1e-9), "p99 generator lateness");
  check(near(perfbench::percentile(late, 0.5), 0.02, 1e-9), "p50 generator lateness");
}

}  // namespace

int main() {
  test_percentile();
  test_self_time();
  test_span_tree();
  test_open_loop();
  std::printf("perfbench_selftest: %d checks passed\n", g_checks);
  return 0;
}
