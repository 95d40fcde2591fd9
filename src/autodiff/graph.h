// Define-by-run computational graph with reverse-mode differentiation.
//
// The graph is the object PELTA's Algorithm 1 walks: it exposes vertices,
// edges, values u_i and adjoints dL/du_i. Node ids are assigned in
// construction order, which is already a topological order, so backward is a
// single reverse sweep.
#pragma once

#include <string>
#include <vector>

#include "autodiff/node.h"

namespace pelta::ad {

class graph {
public:
  graph() = default;
  graph(const graph&) = delete;             // nodes own op state; no implicit copies
  graph& operator=(const graph&) = delete;
  graph(graph&&) = default;
  graph& operator=(graph&&) = default;

  // ---- construction (forward executes eagerly) -------------------------------

  /// Add the model input leaf (the attacker's trainable x).
  node_id add_input(tensor value, std::string tag = "input");

  /// Add a parameter leaf backed by a persistent nn parameter.
  node_id add_parameter(parameter& p);

  /// Add a non-differentiable constant leaf (labels, fixed tensors).
  node_id add_constant(tensor value, std::string tag = "");

  /// Add a transform vertex u_i = f_i(parents); computes the value eagerly.
  node_id add_transform(op_ptr f, std::vector<node_id> parents, std::string tag = "");

  // ---- observers --------------------------------------------------------------

  std::int64_t node_count() const { return static_cast<std::int64_t>(nodes_.size()); }
  const node& at(node_id id) const;

  const tensor& value(node_id id) const { return at(id).value; }

  /// dL/du_id after backward(); throws if the node holds no adjoint.
  const tensor& adjoint(node_id id) const;
  bool has_adjoint(node_id id) const { return at(id).has_adjoint; }

  /// All direct children of `id` (vertices listing it as a parent).
  std::vector<node_id> children(node_id id) const;

  /// First node whose tag equals `tag`; invalid_node when absent.
  node_id find_tag(const std::string& tag) const;

  /// All nodes whose tag starts with `prefix`, in id (topological) order.
  std::vector<node_id> find_tag_prefix(const std::string& prefix) const;

  /// All input leaves (usually exactly one).
  std::vector<node_id> inputs() const;

  // ---- differentiation ---------------------------------------------------------

  /// Reverse sweep seeding d(seed)/d(seed) = 1; seed must be scalar.
  void backward(node_id seed);

  /// Reverse sweep from an arbitrary node with an explicit seed adjoint
  /// (shape must match the node value). Used by attacks that differentiate
  /// custom objectives of the logits.
  void backward_from(node_id seed, tensor seed_adjoint);

  /// Clear all adjoints (e.g. between two backward passes on one graph).
  void zero_adjoints();

  /// Push adjoints of parameter leaves into their backing parameter::grad.
  void accumulate_param_grads();

  /// (parameter, adjoint) pairs for all parameter leaves holding adjoints —
  /// lets callers merge gradients in a deterministic order (data-parallel
  /// training shards).
  std::vector<std::pair<parameter*, const tensor*>> param_adjoints() const;

  /// Human-readable dump (id, kind, op, tag, shape) for debugging and docs.
  std::string to_string() const;

private:
  void check_id(node_id id) const;

  std::vector<node> nodes_;
};

}  // namespace pelta::ad
