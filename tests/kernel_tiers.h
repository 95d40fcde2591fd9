// Runs a test body once per kernel tier this host can execute — sse2 up to
// ops::detail::host_isa() — with every dispatched kernel (GEMM, int8 GEMM,
// activation quantizer, fn::exp / fn::tanh) routed through that tier, and
// logs which tiers ran. The tier-equality cases use it to hold every tier to
// the same bits as sse2 and the frozen reference kernels.
#pragma once

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "tensor/kernel_tiers.h"

namespace pelta::testing {

template <class Body>
void for_each_tier(const Body& body) {
  std::string ran;
  for (int i = 0; i <= static_cast<int>(ops::detail::host_isa()); ++i) {
    const auto tier = static_cast<ops::detail::isa>(i);
    const ops::detail::tier_override route{tier};
    const ops::detail::kernel_table& table = ops::detail::kernels_for(tier);
    body(table);
    ran += ran.empty() ? table.name : std::string{" "} + table.name;
    if (::testing::Test::HasFatalFailure()) break;
  }
  std::printf("[  tiers   ] %s\n", ran.c_str());
}

}  // namespace pelta::testing
