#include "tensor/scratch.h"

#include <algorithm>
#include <new>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "tensor/check.h"

namespace pelta {

namespace {

// Process-wide heap policy, applied at static initialisation so it precedes
// the first forward. A forward frees its whole autodiff graph at the top of
// the heap; with glibc's default trim threshold that memory goes back to
// the kernel and the next batch page-faults it in again (a steady-state
// batch-32 ViT-B/16-sim forward took about 430 minor faults at
// PELTA_THREADS 1 and 2). Keeping up to k_heap_trim_threshold of free heap
// top mapped brings that to about zero. Peak RSS barely moves: the memory
// kept is memory an earlier batch already touched. The scratch arena covers
// kernel workspaces; this covers the tensors themselves. Setting the trim
// threshold also turns off glibc's dynamic mmap threshold, fixing it at its
// 128 KiB default: a larger request that the retained heap top cannot serve
// is mmapped and unmapped every time. Large tensors therefore rely on the
// retained top, and the setting applies to any program linking the library.
//
// The retained top is per glibc arena, and by default every pool thread
// that allocates gets an arena of its own, so each keeps its own high-water
// mapped on top of the main heap's. One arena for the process keeps a
// single high-water: a pooled batch-32 ViT-B/16-sim predict_logits peaked
// at 20 MB with per-thread arenas and 13 MB with one, and the perfbench
// serve_offline process at 20.8 MB and 19.5-20.5 MB. The price is the arena
// lock, shared by the pool threads: 1-3 % of serve_offline and fl_round
// throughput (4 vCPU x86-64 host).
constexpr int k_heap_trim_threshold = 256 << 20;
constexpr int k_heap_arenas = 1;

#if defined(__GLIBC__)
[[maybe_unused]] const bool k_heap_policy_applied = [] {
  const bool trim = mallopt(M_TRIM_THRESHOLD, k_heap_trim_threshold) == 1;
  const bool arenas = mallopt(M_ARENA_MAX, k_heap_arenas) == 1;
  return trim && arenas;
}();
#endif

constexpr std::size_t k_alignment = scratch_arena::k_claim_alignment;  // one cache line
constexpr std::size_t k_min_block_floats = 1024;

float* allocate_floats(std::size_t count) {
  return static_cast<float*>(
      ::operator new(count * sizeof(float), std::align_val_t{k_alignment}));
}

void free_floats(float* p) {
  if (p != nullptr) ::operator delete(p, std::align_val_t{k_alignment});
}

/// Round a checkout up so every claim starts 64-byte aligned.
std::size_t align_floats(std::size_t count) {
  constexpr std::size_t unit = k_alignment / sizeof(float);
  return (count + unit - 1) / unit * unit;
}

}  // namespace

scratch_buffer::scratch_buffer(scratch_buffer&& other) noexcept
    : arena_{other.arena_},
      data_{other.data_},
      count_{other.count_},
      block_{other.block_},
      prev_used_{other.prev_used_} {
  other.arena_ = nullptr;
  other.data_ = nullptr;
  other.count_ = 0;
}

scratch_buffer& scratch_buffer::operator=(scratch_buffer&& other) noexcept {
  if (this != &other) {
    if (arena_ != nullptr) arena_->release(*this);
    arena_ = other.arena_;
    data_ = other.data_;
    count_ = other.count_;
    block_ = other.block_;
    prev_used_ = other.prev_used_;
    other.arena_ = nullptr;
    other.data_ = nullptr;
    other.count_ = 0;
  }
  return *this;
}

scratch_buffer::~scratch_buffer() {
  if (arena_ != nullptr) arena_->release(*this);
}

scratch_arena& scratch_arena::local() {
  static thread_local scratch_arena arena;
  return arena;
}

scratch_arena::scratch_arena() = default;

scratch_arena::~scratch_arena() {
  for (block& b : blocks_) free_floats(b.data);
}

std::size_t scratch_arena::capacity_floats() const {
  std::size_t total = 0;
  for (const block& b : blocks_) total += b.capacity;
  return total;
}

scratch_buffer scratch_arena::take(std::size_t count) {
  if (count == 0) return scratch_buffer{};
  const std::size_t claim = align_floats(count);
  if (blocks_.empty() || blocks_.back().used + claim > blocks_.back().capacity) {
    // Open a fresh block; existing blocks keep their live claims in place.
    // Doubling the total keeps growth logarithmic until the high-water mark
    // of the call pattern is reached, after which consolidation (below)
    // makes this branch unreachable.
    const std::size_t cap =
        std::max({claim, 2 * capacity_floats(), k_min_block_floats});
    blocks_.push_back(block{allocate_floats(cap), cap, 0});
    ++block_allocations_;
  }
  block& b = blocks_.back();
  float* p = b.data + b.used;
  const std::size_t prev_used = b.used;
  b.used += claim;
  used_total_ += claim;
  high_water_ = std::max(high_water_, used_total_);
  ++outstanding_;
  return scratch_buffer{this, p, count, blocks_.size() - 1, prev_used};
}

void scratch_arena::release(const scratch_buffer& buf) {
  PELTA_CHECK_MSG(outstanding_ > 0 && buf.block_ < blocks_.size(),
                  "scratch_buffer released into a foreign arena state");
  // Strict LIFO: every block newer than the claim's is already empty and
  // the claim sits at the top of its own block.
  for (std::size_t i = buf.block_ + 1; i < blocks_.size(); ++i)
    PELTA_CHECK_MSG(blocks_[i].used == 0, "scratch_buffer released out of LIFO order");
  block& b = blocks_[buf.block_];
  PELTA_CHECK_MSG(b.used == buf.prev_used_ + align_floats(buf.count_),
                  "scratch_buffer released out of LIFO order");
  used_total_ -= b.used - buf.prev_used_;
  b.used = buf.prev_used_;
  --outstanding_;
  // Idle and fragmented: collapse to one block covering the high-water
  // pattern so the next call sequence runs allocation-free.
  if (outstanding_ == 0 && blocks_.size() > 1) {
    for (block& old : blocks_) free_floats(old.data);
    blocks_.clear();
    const std::size_t cap = std::max(align_floats(high_water_), k_min_block_floats);
    blocks_.push_back(block{allocate_floats(cap), cap, 0});
    ++block_allocations_;
  }
}

}  // namespace pelta
