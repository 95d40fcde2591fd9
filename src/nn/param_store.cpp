#include "nn/param_store.h"

namespace pelta::nn {

ad::parameter& param_store::create(std::string name, tensor init) {
  PELTA_CHECK_MSG(!contains(name), "duplicate parameter name: " << name);
  params_.push_back(std::make_unique<ad::parameter>(std::move(name), std::move(init)));
  return *params_.back();
}

ad::parameter& param_store::get(const std::string& name) {
  for (auto& p : params_)
    if (p->name == name) return *p;
  throw error{"unknown parameter: " + name};
}

const ad::parameter& param_store::get(const std::string& name) const {
  for (const auto& p : params_)
    if (p->name == name) return *p;
  throw error{"unknown parameter: " + name};
}

bool param_store::contains(const std::string& name) const {
  for (const auto& p : params_)
    if (p->name == name) return true;
  return false;
}

std::int64_t param_store::scalar_count() const {
  std::int64_t n = 0;
  for (const auto& p : params_) n += p->value.numel();
  return n;
}

void param_store::zero_grads() {
  for (auto& p : params_) p->grad.fill_(0.0f);
}

byte_buffer param_store::save_values() const {
  byte_buffer out;
  for (const auto& p : params_) serialize_tensor(p->value, out);
  return out;
}

void param_store::load_values(const byte_buffer& buf) {
  std::size_t offset = 0;
  std::vector<tensor> values = decode_values_at(buf, offset);
  PELTA_CHECK_MSG(offset == buf.size(), "trailing bytes in parameter payload");
  install_values(std::move(values));
}

std::size_t param_store::load_values_at(const byte_buffer& buf, std::size_t offset) {
  install_values(decode_values_at(buf, offset));
  return offset;
}

std::vector<tensor> param_store::decode_values_at(const byte_buffer& buf,
                                                  std::size_t& offset) const {
  std::vector<tensor> values;
  values.reserve(params_.size());
  for (const auto& p : params_) {
    tensor t = deserialize_tensor(buf, offset);
    PELTA_CHECK_MSG(t.same_shape(p->value),
                    "parameter " << p->name << " shape mismatch on load");
    values.push_back(std::move(t));
  }
  return values;
}

void param_store::install_values(std::vector<tensor> values) noexcept {
  for (std::size_t i = 0; i < params_.size(); ++i) params_[i]->value = std::move(values[i]);
}

void param_store::axpy_values(const param_store& other, float scale) {
  PELTA_CHECK_MSG(other.size() == size(), "param store structure mismatch");
  for (std::size_t i = 0; i < params_.size(); ++i) {
    PELTA_CHECK(params_[i]->value.same_shape(other.params_[i]->value));
    params_[i]->value.add_scaled_(other.params_[i]->value, scale);
  }
}

void param_store::copy_values_from(const param_store& other) {
  PELTA_CHECK_MSG(other.size() == size(), "param store structure mismatch");
  for (std::size_t i = 0; i < params_.size(); ++i) {
    PELTA_CHECK(params_[i]->value.same_shape(other.params_[i]->value));
    params_[i]->value = other.params_[i]->value;
  }
}

}  // namespace pelta::nn
