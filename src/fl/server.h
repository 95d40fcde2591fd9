// Trusted FL server: broadcasts the global model, aggregates client updates
// under an aggregation rule (FedAvg or a Byzantine-robust variant).
#pragma once

#include <memory>

#include "fl/aggregation.h"
#include "fl/client.h"

namespace pelta::fl {

class fl_server {
public:
  explicit fl_server(std::unique_ptr<models::model> global_model);

  models::model& global_model() { return *model_; }
  const models::model& global_model() const { return *model_; }

  /// Serialized global parameters (the broadcast payload).
  byte_buffer broadcast() const;

  /// Aggregate the received updates under `rule` (fl/aggregation.h) and
  /// advance the round; FedAvg is θ ← Σ_i (n_i / n) θ_i. A rejected update
  /// set throws before the global model or the round changes.
  void aggregate(const std::vector<model_update>& updates, aggregation_rule rule);

  std::int64_t round() const { return round_; }

private:
  std::unique_ptr<models::model> model_;
  std::int64_t round_ = 0;
};

}  // namespace pelta::fl
