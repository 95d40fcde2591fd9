// nn::param_store: named ownership of trainable parameters, stable
// addresses, flat-value serialization (the FL wire payload), and the
// in-place merge primitives FedAvg builds on.
#include <gtest/gtest.h>

#include "nn/param_store.h"
#include "tensor/check.h"
#include "tensor/tensor.h"

namespace pelta::nn {
namespace {

TEST(ParamStore, CreateLookupAndCount) {
  param_store ps;
  ps.create("w", tensor::ones({2, 3}));
  ps.create("b", tensor::zeros({3}));

  EXPECT_EQ(ps.size(), 2u);
  EXPECT_EQ(ps.scalar_count(), 9);
  EXPECT_TRUE(ps.contains("w"));
  EXPECT_TRUE(ps.contains("b"));
  EXPECT_FALSE(ps.contains("missing"));
  EXPECT_EQ(ps.get("w").value.shape(), (shape_t{2, 3}));
  EXPECT_THROW(ps.get("missing"), pelta::error);
  EXPECT_THROW(ps.create("w", tensor::zeros({1})), pelta::error);
}

TEST(ParamStore, AddressesStableAcrossGrowth) {
  // Graphs and optimizers hold parameter pointers; creating more
  // parameters must not invalidate them.
  param_store ps;
  ad::parameter* first = &ps.create("p0", tensor::zeros({4}));
  for (int i = 1; i < 64; ++i) {
    // Append, not `"p" + to_string(i)`: the const char* + string&& prepend
    // path trips GCC 12's -Wrestrict false positive at -O3 (see
    // models/resnet.cpp), which the -Werror CI legs would promote.
    std::string name = "p";
    name += std::to_string(i);
    ps.create(name, tensor::zeros({4}));
  }
  EXPECT_EQ(first, &ps.get("p0"));
  EXPECT_EQ(first->name, "p0");
}

TEST(ParamStore, SaveLoadRoundTrip) {
  rng g{3};
  param_store a;
  a.create("w", tensor::randn(g, {3, 2}));
  a.create("b", tensor::randn(g, {2}));

  param_store b;
  b.create("w", tensor::zeros({3, 2}));
  b.create("b", tensor::zeros({2}));

  const byte_buffer buf = a.save_values();
  b.load_values(buf);
  for (std::int64_t i = 0; i < 6; ++i) EXPECT_EQ(b.get("w").value[i], a.get("w").value[i]);
  for (std::int64_t i = 0; i < 2; ++i) EXPECT_EQ(b.get("b").value[i], a.get("b").value[i]);
}

TEST(ParamStore, LoadValuesAtReturnsTrailingOffset) {
  param_store a;
  a.create("w", tensor::ones({4}));
  byte_buffer buf = a.save_values();
  const std::size_t payload = buf.size();
  buf.push_back(0x7f);  // trailing extra state (e.g. BN buffers)

  param_store b;
  b.create("w", tensor::zeros({4}));
  const std::size_t end = b.load_values_at(buf, 0);
  EXPECT_EQ(end, payload);
  EXPECT_EQ(b.get("w").value[3], 1.0f);
}

// All-or-nothing load: a payload rejected for trailing bytes or for a
// later tensor's shape replaces no value, not even the ones before it.
TEST(ParamStore, RejectedLoadLeavesEveryValueUnchanged) {
  param_store a;
  a.create("w", tensor::ones({4}));
  a.create("b", tensor::ones({2}));
  param_store b;
  b.create("w", tensor::zeros({4}));
  b.create("b", tensor::zeros({2}));

  byte_buffer trailing = a.save_values();
  trailing.push_back(0);
  EXPECT_THROW(b.load_values(trailing), error);

  byte_buffer wrong_shape;
  serialize_tensor(a.get("w").value, wrong_shape);
  serialize_tensor(tensor::ones({3}), wrong_shape);
  EXPECT_THROW(b.load_values(wrong_shape), error);
  EXPECT_THROW(b.load_values_at(wrong_shape, 0), error);

  for (std::int64_t i = 0; i < 4; ++i) EXPECT_EQ(b.get("w").value[i], 0.0f);
  for (std::int64_t i = 0; i < 2; ++i) EXPECT_EQ(b.get("b").value[i], 0.0f);
}

TEST(ParamStore, AxpyAndCopyMergePrimitives) {
  param_store a;
  a.create("w", tensor::full({3}, 1.0f));
  param_store b;
  b.create("w", tensor::full({3}, 2.0f));

  a.axpy_values(b, 0.5f);  // 1 + 0.5*2 = 2
  for (std::int64_t i = 0; i < 3; ++i) EXPECT_FLOAT_EQ(a.get("w").value[i], 2.0f);

  a.copy_values_from(b);
  for (std::int64_t i = 0; i < 3; ++i) EXPECT_FLOAT_EQ(a.get("w").value[i], 2.0f);
}

TEST(ParamStore, ZeroGradsClearsAccumulation) {
  param_store ps;
  ad::parameter& p = ps.create("w", tensor::ones({3}));
  p.grad = tensor::full({3}, 5.0f);
  ps.zero_grads();
  for (std::int64_t i = 0; i < 3; ++i) EXPECT_EQ(p.grad[i], 0.0f);
}

}  // namespace
}  // namespace pelta::nn
