// Multi-replica serving cluster on the shared simulated clock.
//
// Scales serve from one server to N replicas behind a round-robin router,
// with a chaos schedule (replica kills/restarts) — the fleet the paper's
// §VI cost model is really about: per-batch enclave-transition amortization
// only matters once routing and replica failure interact under open-loop
// load.
//
// The same plan/execute split as everything else scheduled in this repo:
//
//   1. plan_cluster — ONE pure, single-threaded event loop over the shared
//      core::event_queue (simclock.h). Arrivals, batch deadlines, modeled
//      batch finishes and chaos kills/restarts are all events; equal stamps
//      resolve by a fixed event-kind priority (finish < kill < restart <
//      arrival < deadline — an arrival stamped exactly at a batch's
//      deadline is still admitted, the same inclusive-window rule as
//      plan_batches) and, within a kind, by the queue's push-order
//      tie-break, which the planner feeds in canonical (submit_ns, id)
//      order. The plan fixes every decision: which replica serves which
//      request, every batch's membership and close stamp, which batches a
//      kill aborts.
//   2. cluster::run — executes the planned batches, one pool task
//      (submit_task) per replica, each replica with its OWN tee::enclave +
//      enclave_session, running its batches through exec::run_batches —
//      the same batch executor as the single server. Tasks submitted from
//      inside a task run inline, so a replica executes its batches as the
//      sequential chain; the parallelism is across replicas. Replica tasks
//      write disjoint result rows; order-sensitive totals commit in replica
//      order after the join — so the report is bit-identical at every
//      PELTA_THREADS, and every request's logits row is bit-identical to
//      the single-server path (batch-size invariance + one shared executor).
//
// Routing is a rotating cursor over live slots. A replica's pipeline clock
// is a plan-time model priced by server_config::cost (core/cost_model.h);
// measured enclave charges are only known at execution — planning must
// stay pure — and are folded into the replica clocks when the plan
// executes.
//
// Chaos semantics (drain-and-requeue — no request is ever lost):
//   * kill(replica, T): the open batch and every dispatched-but-unfinished
//     batch abort; their requests re-route at stamp T, in canonical
//     (submit_ns, id) order, over the remaining live replicas. Requests
//     whose batches finished (modeled) before T keep their results. If no
//     replica is live, requests are HELD and re-routed at the next restart;
//     a schedule that ends with held requests is rejected (checked), not
//     silently dropped.
//   * restart(replica, T): the slot rejoins empty and idle at T.
#pragma once

#include <cstdint>
#include <vector>

#include "serve/batcher.h"
#include "serve/server.h"

namespace pelta::serve {

/// One scripted chaos action on the simulated clock.
struct chaos_event {
  double stamp_ns = 0.0;
  std::int64_t replica = 0;  ///< slot index
  bool kill = true;          ///< false: restart the (dead) slot
};

struct cluster_config {
  std::int64_t replicas = 2;  ///< fleet size; every slot is live at time 0
  /// Per-replica server: batching policy, simulated cost model, pipeline
  /// depth. Every replica is configured identically.
  server_config server;
  std::vector<chaos_event> chaos;  ///< any order; sorted by the planner
};

/// One planned replica batch. `batch.members` are workload indices in
/// admission order; `batch.open_ns`/`close_ns` are stamped with the
/// replica-local admission times (a requeued request re-arrives at its
/// requeue stamp).
struct planned_cluster_batch {
  planned_batch batch;  ///< the shared single-server batch vocabulary
  std::int64_t replica = -1;
  bool aborted = false;  ///< killed mid-flight; members were requeued
  double last_admit_ns = 0.0;
  double planned_exec_start_ns = 0.0;  ///< modeled (no enclave charge)
  double planned_finish_ns = 0.0;
};

struct cluster_plan {
  std::vector<planned_cluster_batch> batches;  ///< in creation (open) order
  /// Per workload index: the slot whose surviving batch serves it.
  std::vector<std::int64_t> final_replica;
  /// Routing decisions per slot, requeues included.
  std::vector<std::int64_t> routed_per_slot;
  std::int64_t requests = 0;
  std::int64_t requeued = 0;  ///< re-route decisions after kills
  double end_ns = 0.0;  ///< modeled finish of the last batch
};

/// Plan the whole cluster schedule. Pure and single-threaded: depends only
/// on the config and the (submit_ns, id) workload — never on wall-clock,
/// thread count or model values. `ids` must have one entry per stamp (the
/// canonical tie-break).
cluster_plan plan_cluster(const cluster_config& config,
                          const std::vector<double>& submit_ns,
                          const std::vector<std::int64_t>& ids);

/// What one replica slot did, on the simulated clock: the batch executor's
/// record of its executed (non-aborted) batches, plus the slot.
struct replica_report : batch_run {
  std::int64_t slot = -1;
};

struct cluster_report {
  /// One result per request, in the caller's submission order — each row
  /// bit-identical to the single-server path's.
  std::vector<classify_result> results;
  std::vector<replica_report> replicas;  ///< one per slot, slot order
  cluster_plan plan;                     ///< the fixed schedule that ran
  std::int64_t requests = 0;
  double first_submit_ns = 0.0;
  double last_finish_ns = 0.0;  ///< executed makespan end (enclave included)
  double enclave_ns = 0.0;
  std::int64_t hotcalls = 0;

  double simulated_span_ns() const { return last_finish_ns - first_submit_ns; }
};

class cluster {
public:
  /// The backend must outlive the cluster and be safe to run one batch per
  /// replica concurrently (every repo backend is: forwards build fresh
  /// graphs over const parameters, and each replica stores through its own
  /// enclave). Replica enclaves are owned per run.
  cluster(shielded_backend& backend, cluster_config config);

  /// Plan and execute a complete workload. One pool task per replica slot;
  /// bit-identical report at every PELTA_THREADS.
  cluster_report run(const std::vector<classify_request>& workload);

private:
  shielded_backend* backend_;
  cluster_config config_;
};

}  // namespace pelta::serve
