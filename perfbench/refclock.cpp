#include "refclock.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace perfbench {

namespace {

constexpr std::size_t k_n = 32;
constexpr int k_reps = 64;

// Kept across calls so the kernel's inputs are run-time data.
struct operands {
  std::array<float, k_n * k_n> a{};
  std::array<float, k_n * k_n> b{};
  std::array<float, k_n * k_n> c{};

  operands() {
    for (std::size_t i = 0; i < a.size(); ++i) a[i] = 0.5f + 1e-4f * static_cast<float>(i % 97);
    b = a;
  }
};

}  // namespace

double reference_ms() {
  thread_local operands m;
  const std::int64_t t0 = now_ns();
  for (int rep = 0; rep < k_reps; ++rep) {
    m.c.fill(0.0f);
    for (std::size_t i = 0; i < k_n; ++i)
      for (std::size_t k = 0; k < k_n; ++k) {
        const float av = m.a[i * k_n + k];
        for (std::size_t j = 0; j < k_n; ++j) m.c[i * k_n + j] += av * m.b[k * k_n + j];
      }
    // Feed a little of each product back, so no repetition can be skipped.
    const auto at = static_cast<std::size_t>(rep) % m.a.size();
    m.a[at] += 1e-9f * m.c[at];
  }
  return static_cast<double>(now_ns() - t0) / 1e6;
}

double read_reference(int runs) {
  std::vector<double> times;
  for (int i = 0; i < std::max(runs, 1); ++i) times.push_back(reference_ms());
  return median(times);
}

reference_readers::reference_readers() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  if (cpus.empty()) cpus.push_back(-1);  // unknown: one unpinned reader
  results_.assign(cpus.size(), 0.0);
  for (std::size_t i = 0; i < cpus.size(); ++i)
    threads_.emplace_back([this, cpu = cpus[i], i] { serve(cpu, i); });
}

reference_readers::~reference_readers() {
  {
    const std::lock_guard<std::mutex> lock{m_};
    stop_ = true;
  }
  go_.notify_all();
  for (std::thread& t : threads_) t.join();
}

double reference_readers::read(int runs) {
  std::unique_lock<std::mutex> lock{m_};
  runs_ = runs;
  pending_ = threads_.size();
  ++generation_;
  go_.notify_all();
  while (pending_ != 0) done_.wait(lock);
  double total = 0.0;
  for (const double r : results_) total += r;
  return total / static_cast<double>(results_.size());
}

void reference_readers::serve(int cpu, std::size_t slot) {
  if (cpu >= 0) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pthread_setaffinity_np(pthread_self(), sizeof one, &one);
  }
  std::unique_lock<std::mutex> lock{m_};
  // Readers start at generation 0, whether or not a reading was already
  // asked for by the time this thread runs.
  std::int64_t seen = 0;
  for (;;) {
    while (!stop_ && generation_ == seen) go_.wait(lock);
    if (stop_) return;
    seen = generation_;
    const int runs = runs_;
    lock.unlock();
    const double ms = read_reference(runs);
    lock.lock();
    results_[slot] = ms;
    if (--pending_ == 0) done_.notify_one();
  }
}

}  // namespace perfbench
