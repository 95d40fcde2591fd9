// Per-enclave serving session: switchless TEE accounting charged per batch.
//
// bench_overhead_tee shows the two ways shield traffic can pay for the
// boundary: ecall-style stores (two ~4 µs world switches per masked tensor
// — what core/pelta.h's per-request classify() pays) versus HotCalls
// (~0.6 µs per store with a worker parked inside the enclave). A serving
// session keeps one hotcall worker attached for its whole lifetime, so a
// batch of 32 requests pays ONE shield application's worth of handoffs
// instead of 32 ecall-style shields — the amortization the related TEE-FL
// systems (GradSec, Flatee) report as the condition for shielded layers to
// be affordable under load.
//
// Accounting is delta-based: begin_batch()/end_batch() bracket one batch's
// shield application and return exactly what that batch charged the
// enclave's simulated cost model. The deltas depend only on store counts
// and byte sizes, so they are bit-reproducible across runs and thread
// counts.
#pragma once

#include <cstdint>

#include "tee/enclave.h"
#include "tee/hotcalls.h"
#include "tee/secure_store.h"

namespace pelta::serve {

class enclave_session {
public:
  /// Attaches a hotcall worker to `e` (which must be in the normal world)
  /// for the session's lifetime. The enclave must outlive the session.
  explicit enclave_session(tee::enclave& e);

  /// Write port for shield::pelta_shield_tags / shield::shield_batch:
  /// every store is one switchless hot call.
  tee::secure_store& port() { return port_; }

  /// What one bracketed batch charged the cost model.
  struct batch_charge {
    double enclave_ns = 0.0;    ///< modeled latency (handoffs + marshalled bytes)
    std::int64_t hotcalls = 0;  ///< switchless calls the batch issued
    std::int64_t stores = 0;    ///< enclave entries it (re)placed
    std::int64_t bytes_in = 0;  ///< bytes marshalled into secure memory
  };

  void begin_batch();
  batch_charge end_batch();  ///< also folds the delta into the totals

  struct totals {
    std::int64_t batches = 0;
    std::int64_t hotcalls = 0;
    std::int64_t stores = 0;
    std::int64_t bytes_in = 0;
    double enclave_ns = 0.0;
  };
  const totals& accumulated() const { return totals_; }

private:
  tee::enclave* enclave_;
  tee::hotcall_server server_;
  tee::hotcall_store port_;
  bool in_batch_ = false;
  double ns_mark_ = 0.0;
  std::int64_t calls_mark_ = 0;
  std::int64_t stores_mark_ = 0;
  std::int64_t bytes_mark_ = 0;
  totals totals_;
};

}  // namespace pelta::serve
