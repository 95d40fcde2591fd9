// Rounding-mode probe for the digest pins (test_adjoint_lift,
// test_attention, test_train_loop): a build whose detail::fmadd rounds once
// (PELTA_FUSED_MADD or an FMA baseline) gives every product other bits, so
// each digest is pinned once per rounding mode and this picks the column.
#pragma once

#include "tensor/kernels.h"

namespace pelta::testing {

inline bool fused_madd_build() {
  volatile float x = 1.0f + 0x1p-12f;
  const float xx = x * x;
  return ops::detail::fmadd(x, x, -xx) != 0.0f;
}

}  // namespace pelta::testing
