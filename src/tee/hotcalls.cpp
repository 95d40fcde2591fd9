#include "tee/hotcalls.h"

namespace pelta::tee {

hotcall_server::hotcall_server(enclave& e) : enclave_{&e} {
  PELTA_CHECK_MSG(e.current_world() == world::normal,
                  "hotcall_server expects the enclave in the normal world");
  // One switch for the worker's lifetime instead of two per operation.
  enclave_->enter_secure();
  // pelta-lint: allow(R4) enclave-resident HotCalls worker, not pool work
  worker_ = std::thread{[this] { worker_loop(); }};
}

hotcall_server::~hotcall_server() {
  stop_.store(true, std::memory_order_release);
  worker_.join();
  enclave_->exit_secure();
}

void hotcall_server::worker_loop() {
  for (;;) {
    if (state_.load(std::memory_order_acquire) == slot_state::ready) {
      request& r = *slot_;
      try {
        enclave_->store(*r.key, *r.value);
      } catch (...) {
        r.failure = std::current_exception();
      }
      state_.store(slot_state::done, std::memory_order_release);
    } else {
      if (stop_.load(std::memory_order_acquire)) return;
      std::this_thread::yield();
    }
  }
}

void hotcall_server::store(const std::string& key, const tensor& value) {
  request r{&key, &value, nullptr};
  const sync::lock_guard lock{client_mutex_};
  slot_ = &r;
  state_.store(slot_state::ready, std::memory_order_release);
  while (state_.load(std::memory_order_acquire) != slot_state::done) std::this_thread::yield();
  state_.store(slot_state::empty, std::memory_order_release);

  // Modeled cost: one polled handoff plus the bytes that crossed the slot.
  const double ns = enclave_->costs().hotcall_ns +
                    static_cast<double>(value.byte_size()) * enclave_->costs().per_byte_ns;
  simulated_ns_ += ns;
  enclave_->charge_ns(ns);
  ++calls_;

  if (r.failure) std::rethrow_exception(r.failure);
}

hotcall_stats hotcall_server::statistics() const {
  // calls_ / simulated_ns_ are written by store() under client_mutex_;
  // reading them lock-free here raced concurrent callers (surfaced by the
  // clang thread-safety sweep — the serve enclave_session meters per-batch
  // deltas through this accessor while producers may still be pushing).
  const sync::lock_guard lock{client_mutex_};
  hotcall_stats s;
  s.calls = calls_;
  s.simulated_ns = simulated_ns_;
  return s;
}

}  // namespace pelta::tee
