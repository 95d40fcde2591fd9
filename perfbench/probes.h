// Library-side helpers of the workloads. The timing decorators around the
// library's public interfaces forward every call unchanged and record a span
// around it (no-op when tracing is off), so the traced run exercises the
// same code as the untraced one.
#pragma once

#include <string>

#include "data/dataset.h"
#include "models/zoo.h"
#include "tee/secure_store.h"
#include "trace.h"

namespace perfbench {

/// Write port that times each store into secure memory and forwards it to
/// the port the caller was handed (a serving session's hotcall port, or an
/// ecall_store over an enclave).
class timing_store final : public pelta::tee::secure_store {
public:
  explicit timing_store(pelta::tee::secure_store& inner) : inner_{&inner} {}

  void store(const std::string& key, const pelta::tensor& value) override {
    const scoped_span s{"tee.store"};
    inner_->store(key, value);
  }

private:
  pelta::tee::secure_store* inner_;
};

/// The model task matching a dataset, initialised from `seed`.
inline pelta::models::task_spec task_of(const pelta::data::dataset_config& dc,
                                        std::uint64_t seed) {
  pelta::models::task_spec task;
  task.image_size = dc.image_size;
  task.channels = dc.channels;
  task.classes = dc.classes;
  task.seed = seed;
  return task;
}

/// Median of a sample, 0 for an empty one (a layer the workload never
/// reaches reports 0).
inline double median_or_zero(const std::vector<double>& v) {
  return v.empty() ? 0.0 : median(v);
}

}  // namespace perfbench
