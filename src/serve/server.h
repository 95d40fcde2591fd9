// Batched shielded-inference server.
//
// Many producers submit single-sample classify requests; the dynamic
// batcher (batcher.h) coalesces them under a {max_batch, max_delay_ns}
// policy; the server drives each batch through ONE forward pass and ONE
// shield application of its backend — turning many concurrent requests
// into few large GEMMs, which is where the blocked kernels (PR 4) and the
// thread pool (PR 2) pay off — and scatters per-request results.
//
// Two clocks, deliberately separate:
//   * the SIMULATED clock orders batches and prices latency (arrival
//     stamps, the enclave cost model's ns, a modeled compute duration) —
//     bit-identical for every PELTA_THREADS value, enforced by
//     tests/test_serve.cpp;
//   * WALL-CLOCK throughput is measured outside, by bench/bench_serving,
//     which gates batched >= serial wall throughput and >= 3x simulated.
//
// Wall execution is the batch executor exec::run_batches (exec.h), the same
// loop every cluster replica runs: up to `pipeline_depth` batches are in
// flight, gather and scatter/argmax overlap across batches as pool tasks,
// and the enclave forward+shield stage stays serialized in
// batch order through the single enclave_session (it is stateful —
// begin_batch/end_batch brackets never interleave). Results commit strictly
// in batch order, so every report field is bit-identical to the strictly
// sequential chain (depth 1) — only wall-clock changes.
//
// Determinism contract: batches execute in planned order, each request's
// logits row is bit-identical to a batch-1 forward of that sample, and work
// inside a batch parallelizes only through the bit-stable kernel/pool
// layers, so no result depends on batch composition, thread count, or
// wall-clock.
#pragma once

#include <string>
#include <vector>

#include "core/cost_model.h"
#include "models/model.h"
#include "serve/batcher.h"
#include "serve/request.h"
#include "serve/request_queue.h"
#include "serve/session.h"

namespace pelta::serve {

/// Model adapter the server drives: one forward + one shield application
/// per call, masked tensors leaving through `sink`.
class shielded_backend {
public:
  virtual ~shielded_backend() = default;

  struct batch_stats {
    std::int64_t masked_transforms = 0;
    std::int64_t shield_bytes = 0;
  };

  virtual std::int64_t num_classes() const = 0;

  /// images [B,C,H,W] -> logits [B, classes]. `ids` are the request ids of
  /// the rows.
  virtual tensor run_batch(const tensor& images, const std::vector<std::int64_t>& ids,
                           tee::secure_store& sink, batch_stats* stats) = 0;
};

/// One shielded model: batch forward, shield once, one masked_view per
/// batch (shield::shield_batch).
class model_backend final : public shielded_backend {
public:
  explicit model_backend(const models::model& m, std::string key_prefix = "serve/");

  std::int64_t num_classes() const override { return model_->num_classes(); }
  tensor run_batch(const tensor& images, const std::vector<std::int64_t>& ids,
                   tee::secure_store& sink, batch_stats* stats) override;

private:
  const models::model* model_;
  std::string key_prefix_;
};

struct server_config {
  batch_policy policy;

  /// Modeled compute price of a batch on the simulated clock
  /// (core/cost_model.h): every executed batch costs cost.batch_ns(size).
  core::cost_model cost;

  /// Max batches in flight in the batch executor (exec.h): gathers
  /// run up to this many batches ahead of the serialized enclave stage
  /// (bounding the gathered-tensor memory), scatters trail behind it.
  /// 1 = the strictly sequential gather -> enclave -> scatter chain;
  /// 0 picks an automatic depth from the thread count. Every depth yields
  /// a bit-identical serving_report (enforced by tests/test_serve.cpp).
  std::int64_t pipeline_depth = 0;
};

/// What one executed batch did, on the simulated clock.
struct batch_record {
  std::vector<std::int64_t> request_ids;
  double close_ns = 0.0;
  double exec_start_ns = 0.0;
  double enclave_ns = 0.0;
  double compute_ns = 0.0;
  std::int64_t hotcalls = 0;
};

/// What the batch executor (exec::run_batches) ran, on the simulated clock.
struct batch_run {
  std::vector<batch_record> batches;  ///< in execution order
  std::int64_t requests = 0;          ///< requests served
  double enclave_ns = 0.0;            ///< total modeled TEE cost
  std::int64_t hotcalls = 0;
  double last_finish_ns = 0.0;  ///< simulated makespan end; 0 when no batch ran
};

/// A served workload: the executor's record plus every request's result.
struct serving_report : batch_run {
  /// One result per request, in the caller's submission order.
  std::vector<classify_result> results;
  double first_submit_ns = 0.0;

  double simulated_span_ns() const { return last_finish_ns - first_submit_ns; }
  double mean_batch_size() const {
    return batches.empty() ? 0.0
                           : static_cast<double>(requests) / static_cast<double>(batches.size());
  }
};

class server {
public:
  /// The backend and enclave must outlive the server. Attaches a hotcall
  /// session to the enclave for the server's lifetime.
  server(shielded_backend& backend, tee::enclave& enclave, server_config config);

  /// Deterministic path: plan and execute a complete workload. Results come
  /// back in `workload` order; batches execute in planned dispatch order.
  serving_report run(const std::vector<classify_request>& workload);

  /// Live ingress for producer threads.
  request_queue& queue() { return queue_; }

  /// Drain everything currently queued and serve it. The drained set is
  /// canonically re-sorted by (submit_ns, id) first, so the outcome depends
  /// only on the requests, not on producer interleaving.
  serving_report drain();

  /// Like drain(), but blocks until at least one request is queued or the
  /// queue is closed.
  serving_report drain_wait();

  const enclave_session& session() const { return session_; }
  const server_config& config() const { return config_; }

private:
  shielded_backend* backend_;
  server_config config_;
  enclave_session session_;
  request_queue queue_;
};

}  // namespace pelta::serve
