// Ownership of a model's trainable parameters.
//
// Parameters have stable addresses for the lifetime of the store (graphs and
// optimizers hold pointers), support named lookup (the shield masks specific
// parameter names), and serialize to flat byte buffers for the FL wire.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "autodiff/node.h"
#include "tensor/serialize.h"

namespace pelta::nn {

class param_store {
public:
  param_store() = default;
  param_store(const param_store&) = delete;
  param_store& operator=(const param_store&) = delete;
  param_store(param_store&&) = default;
  param_store& operator=(param_store&&) = default;

  /// Create a named parameter; names must be unique within the store.
  ad::parameter& create(std::string name, tensor init);

  /// Lookup by exact name; throws when absent.
  ad::parameter& get(const std::string& name);
  const ad::parameter& get(const std::string& name) const;
  bool contains(const std::string& name) const;

  std::size_t size() const { return params_.size(); }
  ad::parameter& at(std::size_t i) { return *params_[i]; }
  const ad::parameter& at(std::size_t i) const { return *params_[i]; }

  /// Total scalar parameter count (Table I "model portion" denominators).
  std::int64_t scalar_count() const;

  void zero_grads();

  /// Flatten all parameter values (in creation order) to bytes / restore.
  /// Shapes must match on load — this is the FL model-update payload.
  /// Loads are all-or-nothing: every tensor is decoded and shape-checked
  /// (and, for load_values, the payload checked for trailing bytes) before
  /// the first value is replaced, so a rejected payload leaves the store
  /// untouched.
  byte_buffer save_values() const;
  void load_values(const byte_buffer& buf);
  /// Load starting at `offset`; returns the offset past the parameters
  /// (lets callers append further state, e.g. batch-norm buffers).
  std::size_t load_values_at(const byte_buffer& buf, std::size_t offset);
  /// The decode half of a load: every parameter's value from `buf` at
  /// `offset` (advanced past them), shape-checked against the store but
  /// not installed. Throws pelta::error on a short or mismatched payload.
  std::vector<tensor> decode_values_at(const byte_buffer& buf, std::size_t& offset) const;
  /// The install half: replaces every value, in creation order, with
  /// tensors decode_values_at returned. Cannot fail.
  void install_values(std::vector<tensor> values) noexcept;

  /// Elementwise in-place: value += scale * other.value (FedAvg merges).
  void axpy_values(const param_store& other, float scale);
  /// Copy values from another store with identical structure.
  void copy_values_from(const param_store& other);

private:
  std::vector<std::unique_ptr<ad::parameter>> params_;
};

}  // namespace pelta::nn
