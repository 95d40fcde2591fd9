// Switchless enclave stores — HotCalls (Weisse et al., ISCA'17), the
// optimization §VI points at when it notes that "minimizing context
// switches is an important optimization technique in the design of TEE
// applications".
//
// Instead of paying an ecall/SMC world switch per store, a dedicated
// worker thread stays inside the enclave and polls a shared request slot.
// The normal world publishes a store, spins until the worker marks it
// done, and never transitions privilege levels. This file implements the
// mechanism for real (an SPSC slot on C++ atomics with acquire/release
// hand-off, served by an actual worker thread), while the latency model
// charges the measured-in-literature ≈0.6 µs per call instead of the
// multi-µs switch.
//
// The slot carries one op, `store` — the only crossing the shield's masked
// tensors need. Discipline: while a hotcall_server is attached, the worker
// owns the enclave (the single-consumer assumption HotCalls make); read the
// contents back after it shuts down, under a tee::secure_session.
#pragma once

#include <atomic>
#include <exception>
#include <thread>

#include "core/sync.h"
#include "tee/enclave.h"

namespace pelta::tee {

struct hotcall_stats {
  std::int64_t calls = 0;
  double simulated_ns = 0.0;  ///< modeled cost of all calls (handoff + bytes)
};

class hotcall_server {
public:
  /// Takes the enclave into the secure world (one world switch) and starts
  /// the polling worker. The enclave must currently be in the normal world.
  explicit hotcall_server(enclave& e);

  /// Stops the worker, returns the enclave to the normal world.
  ~hotcall_server();

  hotcall_server(const hotcall_server&) = delete;
  hotcall_server& operator=(const hotcall_server&) = delete;

  /// Store `value` under `key` inside the enclave (thread-safe, serialized).
  /// Rethrows, with its type, whatever the enclave store threw (e.g.
  /// enclave_capacity_error); the call is charged either way.
  void store(const std::string& key, const tensor& value) PELTA_EXCLUDES(client_mutex_);

  hotcall_stats statistics() const;

private:
  enum class slot_state : int { empty, ready, done };

  struct request {
    const std::string* key = nullptr;
    const tensor* value = nullptr;
    std::exception_ptr failure;
  };

  void worker_loop();

  enclave* enclave_;
  // The HotCalls design point: a dedicated thread parked INSIDE the enclave
  // for the server's lifetime. It cannot be a pool task — pool workers are
  // normal-world and a task would pin one for the whole session.
  std::thread worker_;  // pelta-lint: allow(R4) enclave-resident HotCalls worker, not pool work
  std::atomic<slot_state> state_{slot_state::empty};
  std::atomic<bool> stop_{false};
  // slot_ carries no GUARDED_BY: the worker reads it without client_mutex_,
  // synchronized instead by the state_ acquire/release handoff (publish
  // happens-before ready, done happens-before the client's next touch).
  request* slot_ = nullptr;  // published by store(), consumed by the worker
  mutable sync::mutex client_mutex_;  // serializes normal-world callers (SPSC slot)
  std::int64_t calls_ PELTA_GUARDED_BY(client_mutex_) = 0;
  double simulated_ns_ PELTA_GUARDED_BY(client_mutex_) = 0.0;
};

}  // namespace pelta::tee
