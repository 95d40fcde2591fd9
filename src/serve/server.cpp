#include "serve/server.h"

#include <utility>

#include "serve/exec.h"
#include "shield/masked_view.h"

namespace pelta::serve {

// ---- backend ----------------------------------------------------------------

model_backend::model_backend(const models::model& m, std::string key_prefix)
    : model_{&m}, key_prefix_{std::move(key_prefix) + m.name() + "/"} {}

tensor model_backend::run_batch(const tensor& images, const std::vector<std::int64_t>& /*ids*/,
                                tee::secure_store& sink, batch_stats* stats) {
  models::forward_pass fp = model_->forward(images, ad::norm_mode::eval);
  const shield::masked_view view =
      shield::shield_batch(fp.graph, model_->shield_frontier_tags(), sink, key_prefix_);
  // The prediction must come from the clear, deep part of the model — the
  // shield may never swallow the serving output.
  PELTA_CHECK_MSG(view.value_accessible(fp.logits),
                  "shield frontier reached the logits; nothing left to serve");
  if (stats != nullptr) {
    stats->masked_transforms =
        static_cast<std::int64_t>(view.report().masked_transforms.size());
    stats->shield_bytes = view.report().total_bytes();
  }
  return fp.graph.value(fp.logits);
}

// ---- server -----------------------------------------------------------------

server::server(shielded_backend& backend, tee::enclave& enclave, server_config config)
    : backend_{&backend}, config_{std::move(config)}, session_{enclave} {}

serving_report server::run(const std::vector<classify_request>& workload) {
  // Plan with the id tie-break so equal-submit_ns requests batch in the
  // same canonical (submit_ns, id) order canonicalize() establishes —
  // never in the caller's producer-interleaving order.
  std::vector<double> submit_ns(workload.size());
  std::vector<std::int64_t> ids(workload.size());
  for (std::size_t i = 0; i < workload.size(); ++i) {
    submit_ns[i] = workload[i].submit_ns;
    ids[i] = workload[i].id;
  }
  const batch_plan plan = plan_batches(submit_ns, ids, config_.policy);

  std::vector<exec::batch_ref> batches;
  batches.reserve(plan.batches.size());
  for (std::size_t b = 0; b < plan.batches.size(); ++b) batches.push_back({b, &plan.batches[b]});
  serving_report report = exec::make_report_header(workload);
  static_cast<batch_run&>(report) =
      exec::run_batches(workload, batches, *backend_, session_, config_, report.results);
  return report;
}

serving_report server::drain() { return run(canonicalize(queue_.drain())); }

serving_report server::drain_wait() { return run(canonicalize(queue_.wait_drain())); }

}  // namespace pelta::serve
