// Reference clock: a fixed, benchmark-owned compute kernel whose run time
// tracks the speed the host gives this virtual machine's CPUs.
//
// On the shared 4-CPU virtual machines the benchmark is sized for, the same
// work runs up to about 1.5x faster or slower for seconds to minutes at a
// time (the host's clock or core sharing; nothing inside the guest selects
// it).
// Wall-clock figures then move by that factor between identical runs. The
// gated time figures are divided by the host's speed, measured with this
// kernel, and so reported as if the CPU ran at the speed where the kernel
// takes k_reference_nominal_ms. The raw wall-clock figures and the readings
// stay in the run record.
//
// The host's speed changes within seconds, and each virtual CPU's on its
// own (readings taken at once on the four CPUs are barely correlated), so
// the kernel is read all through a run, where the work runs: on the
// driving thread for the closed-loop workloads, whose work runs mostly on
// it, and for the serve workloads, whose work runs on several server
// threads, on every CPU at once, by one pinned reader thread per CPU
// (reference_readers), a reading then being the mean of the CPUs' times.
// It is taken only at quiet points, while no library thread
// runs and the benchmark's idle spinners are paused (bench.h quiet_reading):
// before every attacked sample and every round, and in the serve workloads
// between segments of the window, with the server (and with it the
// session's hotcall worker) destroyed. The program's threads therefore
// never compete with it. A program change can still move a reading through
// what it leaves behind (cache and memory state, the host's response to its
// load); the kernel is cache-resident and the figures use the median of
// many readings, which keeps that small but does not rule it out. Each op
// is scaled by the readings taken within a few seconds of it
// (stats.h reference_at).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench {

/// Kernel time (ms) at the reference speed: its typical time on the host
/// class the benchmark was sized on, in that host's common, slower state.
inline constexpr double k_reference_nominal_ms = 0.26;

/// Times one run of the reference kernel (a dense 32x32 fp32 matrix
/// product, repeated; its 12 KiB of operands stay in L1, no allocation) on
/// the calling thread.
double reference_ms();

/// The calling thread's speed now: the median of `runs` back-to-back
/// reference_ms() runs, so runs slowed by an interrupt or a cold cache do not
/// move it.
double read_reference(int runs);

/// One reader thread per CPU the process may run on, pinned to it and
/// parked between readings.
class reference_readers {
public:
  reference_readers();
  ~reference_readers();
  reference_readers(const reference_readers&) = delete;
  reference_readers& operator=(const reference_readers&) = delete;

  /// Every reader takes read_reference(runs) at once; returns the mean of
  /// their times (ms).
  double read(int runs);

private:
  void serve(int cpu, std::size_t slot);

  std::mutex m_;
  std::condition_variable go_;    // a reading asked for, or stop_
  std::condition_variable done_;  // pending_ reached 0
  std::int64_t generation_ = 0;   // guarded by m_, like every field below
  int runs_ = 1;
  std::size_t pending_ = 0;
  bool stop_ = false;
  std::vector<double> results_;
  std::vector<std::thread> threads_;
};

}  // namespace perfbench
