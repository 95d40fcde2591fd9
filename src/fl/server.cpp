#include "fl/server.h"

#include "models/checkpoint.h"

namespace pelta::fl {

fl_server::fl_server(std::unique_ptr<models::model> global_model)
    : model_{std::move(global_model)} {
  PELTA_CHECK_MSG(model_ != nullptr, "server needs a global model");
}

byte_buffer fl_server::broadcast() const { return models::save_state(*model_); }

void fl_server::aggregate(const std::vector<model_update>& updates, aggregation_rule rule) {
  models::load_state(*model_, aggregate_states(models::save_state(*model_), updates, rule));
  ++round_;
}

}  // namespace pelta::fl
