// The batch executor of the serving runtime, shared by serve::server and
// every serve::cluster replica.
//
// run_batches is the one place a planned batch meets the enclave: gather (a
// plain copy of the request images) -> begin_batch -> backend forward +
// shield -> end_batch -> logits shape check -> simulated busy-chain ->
// batch_record -> scatter. The single server and each cluster replica call
// it with their own enclave_session, so a request served by either goes
// through byte-for-byte the same code — half of the cluster-vs-single-server
// logit bit-identity contract (the other half is the kernels' batch-size
// invariance).
#pragma once

#include <cstddef>
#include <vector>

#include "serve/batcher.h"
#include "serve/server.h"

namespace pelta::serve::exec {

/// Gather the batch's request images into one [B,C,H,W] model batch.
/// Pool-parallel and deterministic: each row copies only its own slice.
tensor gather_batch(const std::vector<classify_request>& requests,
                    const std::vector<std::size_t>& members);

/// Scatter one executed batch into the per-request result rows. Writes only
/// the rows `batch.members` owns into the pre-sized results vector, so
/// scatters of different batches (pipeline slots, cluster replicas) can run
/// concurrently.
void scatter_batch(std::vector<classify_result>& results,
                   const std::vector<classify_request>& requests, const planned_batch& batch,
                   std::size_t batch_index, const tensor& logits,
                   const shielded_backend::batch_stats& stats,
                   const enclave_session::batch_charge& charge, double exec_start_ns,
                   double compute_ns, double finish_ns);

/// Pre-sized report skeleton: one result slot per request, first_submit_ns
/// fixed to the earliest arrival.
serving_report make_report_header(const std::vector<classify_request>& requests);

/// One planned batch to execute: its membership and the batch index its
/// result rows report (the position in the plan it came from).
struct batch_ref {
  std::size_t index = 0;
  const planned_batch* batch = nullptr;
};

/// Execute `batches` in order through `backend` and `session`, writing each
/// request's row of the pre-sized `results`.
///
/// Wall execution is a ring of `config.pipeline_depth` in-flight batches (0
/// picks 2-4 from the thread count): gathers run ahead and scatters trail
/// behind as pool tasks, while the enclave stage stays on the calling
/// thread in batch order, so begin_batch/end_batch brackets never
/// interleave. Depth 1 is the strictly sequential chain: batch b's scatter
/// retires before batch b+1's gather starts. The simulated clock chains
/// each batch after the previous one's finish, and everything
/// order-sensitive commits in batch order, so the result is bit-identical
/// at every depth and thread count.
///
/// A backend throw still closes the session bracket. On any failure the
/// ring stops, every in-flight task is joined, and the error the sequential
/// chain would have hit first — earliest batch, then earliest stage — is
/// rethrown.
batch_run run_batches(const std::vector<classify_request>& requests,
                      const std::vector<batch_ref>& batches, shielded_backend& backend,
                      enclave_session& session, const server_config& config,
                      std::vector<classify_result>& results);

}  // namespace pelta::serve::exec
