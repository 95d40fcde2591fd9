#include "autodiff/graph.h"

#include <sstream>

namespace pelta::ad {

void graph::check_id(node_id id) const {
  PELTA_CHECK_MSG(id >= 0 && id < node_count(), "node id " << id << " out of range");
}

const node& graph::at(node_id id) const {
  check_id(id);
  return nodes_[static_cast<std::size_t>(id)];
}

node_id graph::add_input(tensor value, std::string tag) {
  node n;
  n.id = static_cast<node_id>(nodes_.size());
  n.kind = node_kind::input;
  n.tag = std::move(tag);
  n.value = std::move(value);
  n.input_dependent = true;
  n.requires_grad = true;
  nodes_.push_back(std::move(n));
  return nodes_.back().id;
}

node_id graph::add_parameter(parameter& p) {
  node n;
  n.id = static_cast<node_id>(nodes_.size());
  n.kind = node_kind::parameter;
  n.tag = p.name;
  n.param = &p;
  n.value = p.value;  // snapshot for this pass
  n.requires_grad = true;
  nodes_.push_back(std::move(n));
  return nodes_.back().id;
}

node_id graph::add_constant(tensor value, std::string tag) {
  node n;
  n.id = static_cast<node_id>(nodes_.size());
  n.kind = node_kind::constant;
  n.tag = std::move(tag);
  n.value = std::move(value);
  nodes_.push_back(std::move(n));
  return nodes_.back().id;
}

node_id graph::add_transform(op_ptr f, std::vector<node_id> parents, std::string tag) {
  PELTA_CHECK_MSG(f != nullptr, "add_transform with null op");
  PELTA_CHECK_MSG(!parents.empty(), "transform vertex needs at least one parent");
  node n;
  n.id = static_cast<node_id>(nodes_.size());
  n.kind = node_kind::transform;
  n.tag = std::move(tag);
  n.parents = std::move(parents);

  std::vector<const tensor*> inputs;
  inputs.reserve(n.parents.size());
  for (node_id pid : n.parents) {
    check_id(pid);
    PELTA_CHECK_MSG(pid < n.id, "graph edges must point backwards (topological ids)");
    const node& p = nodes_[static_cast<std::size_t>(pid)];
    inputs.push_back(&p.value);
    n.input_dependent = n.input_dependent || p.input_dependent;
    n.requires_grad = n.requires_grad || p.requires_grad;
  }
  n.value = f->forward({inputs.data(), inputs.size()});
  n.oper = std::move(f);
  nodes_.push_back(std::move(n));
  return nodes_.back().id;
}

const tensor& graph::adjoint(node_id id) const {
  const node& n = at(id);
  PELTA_CHECK_MSG(n.has_adjoint, "node " << id << " (" << n.tag << ") holds no adjoint");
  return n.adjoint;
}

std::vector<node_id> graph::children(node_id id) const {
  check_id(id);
  std::vector<node_id> out;
  for (const node& n : nodes_)
    for (node_id p : n.parents)
      if (p == id) {
        out.push_back(n.id);
        break;
      }
  return out;
}

node_id graph::find_tag(const std::string& tag) const {
  for (const node& n : nodes_)
    if (n.tag == tag) return n.id;
  return invalid_node;
}

std::vector<node_id> graph::find_tag_prefix(const std::string& prefix) const {
  std::vector<node_id> out;
  for (const node& n : nodes_)
    if (n.tag.compare(0, prefix.size(), prefix) == 0) out.push_back(n.id);
  return out;
}

std::vector<node_id> graph::inputs() const {
  std::vector<node_id> out;
  for (const node& n : nodes_)
    if (n.kind == node_kind::input) out.push_back(n.id);
  return out;
}

void graph::backward(node_id seed) {
  const node& s = at(seed);
  PELTA_CHECK_MSG(s.value.numel() == 1,
                  "backward() seed must be scalar; node " << seed << " has shape "
                                                          << pelta::to_string(s.value.shape()));
  backward_from(seed, tensor::scalar(1.0f));
}

void graph::backward_from(node_id seed, tensor seed_adjoint) {
  const node& s = at(seed);
  PELTA_CHECK_MSG(s.value.same_shape(seed_adjoint),
                  "seed adjoint shape " << pelta::to_string(seed_adjoint.shape()) << " != node value shape "
                                        << pelta::to_string(s.value.shape()));

  // Per-sweep pending adjoints: only this seed's contribution propagates,
  // so repeated backward calls accumulate like independent sweeps.
  std::vector<tensor> pending(nodes_.size());
  std::vector<bool> has_pending(nodes_.size(), false);
  pending[static_cast<std::size_t>(seed)] = std::move(seed_adjoint);
  has_pending[static_cast<std::size_t>(seed)] = true;

  for (node_id id = seed; id >= 0; --id) {
    if (!has_pending[static_cast<std::size_t>(id)]) continue;
    node& n = nodes_[static_cast<std::size_t>(id)];
    tensor& local = pending[static_cast<std::size_t>(id)];

    if (n.kind == node_kind::transform) {
      std::vector<const tensor*> inputs;
      inputs.reserve(n.parents.size());
      for (node_id pid : n.parents)
        inputs.push_back(&nodes_[static_cast<std::size_t>(pid)].value);

      std::vector<tensor> parent_grads =
          n.oper->backward(local, {inputs.data(), inputs.size()}, n.value);
      PELTA_CHECK_MSG(parent_grads.size() == n.parents.size(),
                      "op " << n.oper->name() << " returned " << parent_grads.size()
                            << " grads for " << n.parents.size() << " parents");

      for (std::size_t k = 0; k < n.parents.size(); ++k) {
        const node& p = nodes_[static_cast<std::size_t>(n.parents[k])];
        if (!p.requires_grad) continue;
        PELTA_CHECK_MSG(parent_grads[k].same_shape(p.value),
                        "op " << n.oper->name() << " grad shape "
                              << pelta::to_string(parent_grads[k].shape())
                              << " != parent value shape " << pelta::to_string(p.value.shape()));
        const std::size_t pk = static_cast<std::size_t>(n.parents[k]);
        if (has_pending[pk])
          pending[pk].add_(parent_grads[k]);
        else {
          pending[pk] = std::move(parent_grads[k]);
          has_pending[pk] = true;
        }
      }
    }

    // Fold this sweep's contribution into the persistent adjoint.
    if (n.has_adjoint)
      n.adjoint.add_(local);
    else {
      n.adjoint = std::move(local);
      n.has_adjoint = true;
    }
  }
}

void graph::zero_adjoints() {
  for (node& n : nodes_) {
    n.has_adjoint = false;
    n.adjoint = tensor{};
  }
}

void graph::accumulate_param_grads() {
  for (node& n : nodes_) {
    if (n.kind != node_kind::parameter || !n.has_adjoint) continue;
    PELTA_CHECK(n.param != nullptr);
    n.param->grad.add_(n.adjoint);
  }
}

std::vector<std::pair<parameter*, const tensor*>> graph::param_adjoints() const {
  std::vector<std::pair<parameter*, const tensor*>> out;
  for (const node& n : nodes_) {
    if (n.kind != node_kind::parameter || !n.has_adjoint) continue;
    PELTA_CHECK(n.param != nullptr);
    out.emplace_back(n.param, &n.adjoint);
  }
  return out;
}

std::string graph::to_string() const {
  std::ostringstream os;
  for (const node& n : nodes_) {
    os << '#' << n.id << ' ';
    switch (n.kind) {
      case node_kind::input: os << "input"; break;
      case node_kind::parameter: os << "param"; break;
      case node_kind::constant: os << "const"; break;
      case node_kind::transform: os << n.oper->name(); break;
    }
    os << ' ' << pelta::to_string(n.value.shape());
    if (!n.tag.empty()) os << " tag=" << n.tag;
    if (!n.parents.empty()) {
      os << " <- (";
      for (std::size_t i = 0; i < n.parents.size(); ++i)
        os << (i ? "," : "") << n.parents[i];
      os << ')';
    }
    if (n.input_dependent) os << " [x-dep]";
    os << '\n';
  }
  return os.str();
}

}  // namespace pelta::ad
