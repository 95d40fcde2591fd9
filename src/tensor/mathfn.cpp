// fn::exp and fn::tanh entry points (see mathfn.h for the contract). The
// vector bodies are in tier_body.h, compiled once per kernel tier with
// -ffp-contract=off (src/CMakeLists.txt): every `a * b + c` there is
// a rounded multiply followed by a rounded add on every build and tier.
#include "tensor/mathfn.h"

#include "tensor/kernel_tiers.h"

namespace pelta::fn {

// The scalar entry is the array map over one element: one zero-padded
// vector through the same body.
float exp(float x) {
  float y;
  ops::detail::active_kernels().exp(&x, &y, 1);
  return y;
}

float tanh(float x) {
  float y;
  ops::detail::active_kernels().tanh(&x, &y, 1);
  return y;
}

void exp(const float* in, float* out, std::int64_t n) {
  ops::detail::active_kernels().exp(in, out, n);
}

void tanh(const float* in, float* out, std::int64_t n) {
  ops::detail::active_kernels().tanh(in, out, n);
}

}  // namespace pelta::fn
