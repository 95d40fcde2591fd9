#include "serve/exec.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "tensor/check.h"
#include "tensor/ops.h"
#include "tensor/parallel.h"

namespace pelta::serve::exec {

tensor gather_batch(const std::vector<classify_request>& requests,
                    const std::vector<std::size_t>& members) {
  PELTA_CHECK(!members.empty());
  const tensor& first = requests[members.front()].image;
  PELTA_CHECK_MSG(first.ndim() == 3, "classify_request.image must be [C,H,W]");
  shape_t batched{static_cast<std::int64_t>(members.size())};
  for (std::int64_t d : first.shape()) batched.push_back(d);
  tensor out{batched};

  const std::int64_t stride = first.numel();
  parallel_for(static_cast<std::int64_t>(members.size()), [&](std::int64_t r) {
    const classify_request& request = requests[members[static_cast<std::size_t>(r)]];
    PELTA_CHECK_MSG(request.image.shape() == first.shape(),
                    "request image shape mismatch inside one batch");
    std::copy(request.image.data().begin(), request.image.data().end(),
              out.data().begin() + r * stride);
  });
  return out;
}

void scatter_batch(std::vector<classify_result>& results,
                   const std::vector<classify_request>& requests, const planned_batch& batch,
                   std::size_t batch_index, const tensor& logits,
                   const shielded_backend::batch_stats& stats,
                   const enclave_session::batch_charge& charge, double exec_start_ns,
                   double compute_ns, double finish_ns) {
  const std::int64_t classes = logits.size(1);
  const tensor preds = ops::argmax_lastdim(logits);
  for (std::size_t r = 0; r < batch.members.size(); ++r) {
    const std::size_t m = batch.members[r];
    classify_result& out = results[m];
    out.request_id = requests[m].id;
    out.predicted = static_cast<std::int64_t>(preds[static_cast<std::int64_t>(r)]);
    out.logits = tensor{shape_t{classes}};
    std::copy(logits.data().begin() + static_cast<std::int64_t>(r) * classes,
              logits.data().begin() + static_cast<std::int64_t>(r + 1) * classes,
              out.logits.data().begin());
    out.batch_index = static_cast<std::int64_t>(batch_index);
    out.batch_size = static_cast<std::int64_t>(batch.members.size());
    out.masked_transforms = stats.masked_transforms;
    out.shield_bytes_batch = stats.shield_bytes;
    out.submit_ns = requests[m].submit_ns;
    out.finish_ns = finish_ns;
    out.latency.queue_ns = batch.close_ns - requests[m].submit_ns;
    out.latency.batch_ns = exec_start_ns - batch.close_ns;
    out.latency.enclave_ns = charge.enclave_ns;
    out.latency.compute_ns = compute_ns;
  }
}

serving_report make_report_header(const std::vector<classify_request>& requests) {
  serving_report report;
  report.requests = static_cast<std::int64_t>(requests.size());
  report.results.resize(requests.size());
  if (requests.empty()) return report;
  report.first_submit_ns = requests.front().submit_ns;
  for (const classify_request& r : requests)
    report.first_submit_ns = std::min(report.first_submit_ns, r.submit_ns);
  return report;
}

batch_run run_batches(const std::vector<classify_request>& requests,
                      const std::vector<batch_ref>& batches, shielded_backend& backend,
                      enclave_session& session, const server_config& config,
                      std::vector<classify_result>& results) {
  batch_run run;
  const std::size_t total = batches.size();
  if (total == 0) return run;
  const std::size_t depth = static_cast<std::size_t>(
      config.pipeline_depth > 0 ? config.pipeline_depth
                                : std::min(4, std::max(2, parallel_thread_count())));
  const std::int64_t classes = backend.num_classes();
  double busy_until_ns = 0.0;
  run.batches.reserve(total);

  // One slot per in-flight batch. `depth` gathers run ahead of the enclave
  // stage. Past depth 1 a spare slot lets the previous occupant finish its
  // scatter while the next gather is already needed; at depth 1 the lone
  // slot's next gather waits for its scatter — the strictly sequential chain.
  struct slot {
    std::size_t pos = 0;  ///< into `batches`
    task_future gather;
    task_future scatter;
    tensor model_batch;
    tensor logits;
    shielded_backend::batch_stats stats;
    enclave_session::batch_charge charge;
    double exec_start_ns = 0.0;
    double compute_ns = 0.0;
    double finish_ns = 0.0;
  };
  std::vector<slot> ring(std::min(depth == 1 ? 1 : depth + 1, total));

  // A failed stage stops the ring; after every in-flight task has retired,
  // the error the sequential chain would have hit first — earliest batch,
  // then earliest stage — is the one rethrown.
  enum : int { gather_stage = 0, enclave_stage = 1, scatter_stage = 2 };
  std::exception_ptr failure;
  std::pair<std::size_t, int> failed_at;
  const auto attempt = [&](std::size_t pos, int stage, const auto& body) {
    try {
      body();
      return true;
    } catch (...) {
      if (!failure || std::pair{pos, stage} < failed_at) {
        failure = std::current_exception();
        failed_at = {pos, stage};
      }
      return false;
    }
  };

  const auto launch_gather = [&](std::size_t pos) {
    slot& s = ring[pos % ring.size()];
    s.pos = pos;
    s.gather = submit_task([&requests, &batches, &s] {
      s.model_batch = gather_batch(requests, batches[s.pos].batch->members);
    });
  };
  std::size_t next_gather = std::min(depth, total);
  for (std::size_t p = 0; p < next_gather; ++p) launch_gather(p);

  for (std::size_t p = 0; p < total && !failure; ++p) {
    slot& s = ring[p % ring.size()];
    const planned_batch& batch = *batches[p].batch;
    const std::int64_t size = static_cast<std::int64_t>(batch.members.size());
    if (!attempt(p, gather_stage, [&s] { s.gather.get(); })) break;

    std::vector<std::int64_t> ids;
    ids.reserve(batch.members.size());
    for (std::size_t m : batch.members) ids.push_back(requests[m].id);

    // One forward + one shield application for the whole batch; the session
    // meters exactly what it charged the TEE cost model. The bracket must
    // close even when the backend throws, or the next batch (or the next
    // run) would wedge on a dangling begin_batch.
    const bool ran = attempt(p, enclave_stage, [&] {
      session.begin_batch();
      try {
        s.logits = backend.run_batch(s.model_batch, ids, session.port(), &s.stats);
      } catch (...) {
        session.end_batch();
        throw;
      }
      s.charge = session.end_batch();
      PELTA_CHECK_MSG(s.logits.ndim() == 2 && s.logits.size(0) == size &&
                          s.logits.size(1) == classes,
                      "backend returned logits " << to_string(s.logits.shape())
                                                 << " for batch of " << size);
    });
    if (!ran) break;

    // Simulated clock: one pipeline — a batch starts when it closed AND the
    // previous batch finished.
    s.exec_start_ns = std::max(batch.close_ns, busy_until_ns);
    s.compute_ns = config.cost.batch_ns(size);
    s.finish_ns = s.exec_start_ns + s.charge.enclave_ns + s.compute_ns;
    busy_until_ns = s.finish_ns;
    run.requests += size;
    run.enclave_ns += s.charge.enclave_ns;
    run.hotcalls += s.charge.hotcalls;
    run.last_finish_ns = s.finish_ns;
    run.batches.push_back(batch_record{std::move(ids), batch.close_ns, s.exec_start_ns,
                                       s.charge.enclave_ns, s.compute_ns, s.charge.hotcalls});

    s.scatter = submit_task([&results, &requests, &batches, &s] {
      const batch_ref& ref = batches[s.pos];
      scatter_batch(results, requests, *ref.batch, ref.index, s.logits, s.stats, s.charge,
                    s.exec_start_ns, s.compute_ns, s.finish_ns);
    });

    if (next_gather < total) {
      // Only the slot's previous scatter may still own its tensors.
      slot& n = ring[next_gather % ring.size()];
      if (n.scatter.valid() && !attempt(n.pos, scatter_stage, [&n] { n.scatter.get(); })) break;
      launch_gather(next_gather++);
    }
  }

  // Join every task still in flight — they touch slot and result memory —
  // before the run (or an exception) leaves this frame.
  for (slot& s : ring) {
    if (s.gather.valid()) attempt(s.pos, gather_stage, [&s] { s.gather.get(); });
    if (s.scatter.valid()) attempt(s.pos, scatter_stage, [&s] { s.scatter.get(); });
  }
  if (failure) std::rethrow_exception(failure);
  return run;
}

}  // namespace pelta::serve::exec
