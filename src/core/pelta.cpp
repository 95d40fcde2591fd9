#include "core/pelta.h"

#include "autodiff/ops_loss.h"
#include "core/version.h"
#include "tensor/ops.h"

namespace pelta {

const char* version_string() { return PELTA_VERSION_STRING; }

defended_model::defended_model(std::unique_ptr<models::model> m, std::int64_t enclave_capacity)
    : model_{std::move(m)}, enclave_{enclave_capacity} {
  PELTA_CHECK_MSG(model_ != nullptr, "defended_model needs a model");
}

std::int64_t defended_model::classify(const tensor& image) {
  PELTA_CHECK_MSG(image.ndim() == 3, "classify expects [C,H,W]");
  shape_t batched{1};
  for (std::int64_t d : image.shape()) batched.push_back(d);
  models::forward_pass fp = model_->forward(image.reshape(batched), ad::norm_mode::eval);
  shield::pelta_shield_tags(fp.graph, model_->shield_frontier_tags(), &enclave_,
                            model_->name() + "/");
  return ops::argmax(fp.graph.value(fp.logits));
}

defended_model::shield_cost defended_model::measure_shield_cost(const tensor& probe_image,
                                                                bool with_gradients) {
  PELTA_CHECK_MSG(probe_image.ndim() == 3, "probe image must be [C,H,W]");
  shape_t batched{1};
  for (std::int64_t d : probe_image.shape()) batched.push_back(d);
  models::forward_pass fp = model_->forward(probe_image.reshape(batched), ad::norm_mode::eval);

  if (with_gradients) {
    // FL training rounds: the device back-propagates a loss; use the
    // model's own prediction as the label (any label exercises the pass).
    const std::int64_t label = ops::argmax(fp.graph.value(fp.logits));
    const ad::node_id labels =
        fp.graph.add_constant(tensor{shape_t{1}, {static_cast<float>(label)}});
    const ad::node_id loss =
        fp.graph.add_transform(ad::make_cross_entropy(), {fp.logits, labels}, "probe_loss");
    fp.graph.backward(loss);
  }

  enclave_.clear();
  const shield::shield_report report = shield::pelta_shield_tags(
      fp.graph, model_->shield_frontier_tags(), &enclave_, model_->name() + "/");

  shield_cost cost;
  cost.tee_bytes = enclave_.used_bytes();
  cost.bytes_activations = report.bytes_activations;
  cost.bytes_gradients = report.bytes_gradients;
  cost.bytes_parameters = report.bytes_parameters;
  cost.masked_parameters = report.masked_param_scalars;
  cost.total_parameters = model_->parameter_count();
  cost.shielded_portion =
      static_cast<double>(cost.masked_parameters) / static_cast<double>(cost.total_parameters);
  cost.masked_transforms = static_cast<std::int64_t>(report.masked_transforms.size());
  cost.jacobian_records = static_cast<std::int64_t>(report.jacobians.size());
  return cost;
}

std::unique_ptr<attacks::gradient_oracle> defended_model::attacker_oracle(std::uint64_t seed) {
  return attacks::make_shielded_oracle(*model_, seed, &enclave_);
}

const char* version() { return "pelta " PELTA_VERSION_STRING " (ICDCS'23 reproduction)"; }

}  // namespace pelta
