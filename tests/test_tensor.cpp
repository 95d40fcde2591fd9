// Tensor substrate: shapes, factories, arithmetic, reductions, linear
// algebra, serialization.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/parallel.h"
#include "tensor/serialize.h"
#include "tensor/tensor.h"

namespace pelta {
namespace {

TEST(Shape, NumelAndStrides) {
  EXPECT_EQ(numel_of({}), 1);
  EXPECT_EQ(numel_of({3}), 3);
  EXPECT_EQ(numel_of({2, 3, 4}), 24);
  EXPECT_EQ(numel_of({5, 0}), 0);
  const shape_t st = strides_of({2, 3, 4});
  EXPECT_EQ(st, (shape_t{12, 4, 1}));
  EXPECT_EQ(to_string(shape_t{2, 3}), "[2, 3]");
}

TEST(Shape, NegativeExtentThrows) { EXPECT_THROW(numel_of({2, -1}), error); }

// Regression: the extent product used to overflow int64 silently (UB), so a
// hostile declared shape could come out as a small or negative numel.
TEST(Shape, NumelOverflowThrows) {
  constexpr std::int64_t big = std::int64_t{1} << 40;
  const shape_t huge{big, big};
  EXPECT_THROW(numel_of(huge), error);
  EXPECT_THROW(numel_of({3, std::int64_t{1} << 62}), error);
  EXPECT_THROW(tensor{huge}, error);
  // The largest representable products still pass, and a zero extent
  // anywhere keeps the product zero.
  EXPECT_EQ(numel_of({std::int64_t{1} << 62, 1}), std::int64_t{1} << 62);
  EXPECT_EQ(numel_of({0, big, big}), 0);
}

// Regression: strides_of multiplied extents unchecked. A zero outer extent
// keeps numel at 0, yet the stride of that extent overflowed int64 (UB).
TEST(Shape, StridesOverflowThrows) {
  constexpr std::int64_t big = std::int64_t{1} << 40;
  EXPECT_THROW(strides_of({0, big, big}), error);
  EXPECT_EQ(strides_of({0, big}), (shape_t{big, 1}));
}

TEST(Tensor, DefaultIsScalarZero) {
  tensor t;
  EXPECT_EQ(t.ndim(), 0);
  EXPECT_EQ(t.numel(), 1);
  EXPECT_FLOAT_EQ(t.item(), 0.0f);
}

TEST(Tensor, Factories) {
  tensor z = tensor::zeros({2, 3});
  EXPECT_EQ(z.numel(), 6);
  for (float v : z.data()) EXPECT_FLOAT_EQ(v, 0.0f);

  tensor o = tensor::ones({4});
  for (float v : o.data()) EXPECT_FLOAT_EQ(v, 1.0f);

  tensor f = tensor::full({2, 2}, 3.5f);
  for (float v : f.data()) EXPECT_FLOAT_EQ(v, 3.5f);

  tensor s = tensor::scalar(-2.0f);
  EXPECT_FLOAT_EQ(s.item(), -2.0f);

  tensor a = tensor::arange(5);
  EXPECT_FLOAT_EQ(a[0], 0.0f);
  EXPECT_FLOAT_EQ(a[4], 4.0f);
}

TEST(Tensor, RandomFactoriesDeterministic) {
  rng g1{99}, g2{99};
  tensor a = tensor::randn(g1, {8, 8});
  tensor b = tensor::randn(g2, {8, 8});
  for (std::int64_t i = 0; i < a.numel(); ++i) EXPECT_FLOAT_EQ(a[i], b[i]);

  rng g3{7};
  tensor u = tensor::rand_uniform(g3, {100}, -0.5f, 0.5f);
  for (float v : u.data()) {
    EXPECT_GE(v, -0.5f);
    EXPECT_LT(v, 0.5f);
  }
}

TEST(Tensor, ExplicitDataCtorValidatesSize) {
  EXPECT_NO_THROW((tensor{{2, 2}, {1, 2, 3, 4}}));
  EXPECT_THROW((tensor{{2, 2}, {1, 2, 3}}), error);
}

TEST(Tensor, MultiDimAccess) {
  tensor t{{2, 3}};
  t.at(1, 2) = 7.0f;
  EXPECT_FLOAT_EQ(t.at(1, 2), 7.0f);
  EXPECT_FLOAT_EQ(t[5], 7.0f);

  tensor t3{{2, 2, 2}};
  t3.at(1, 0, 1) = 2.0f;
  EXPECT_FLOAT_EQ(t3[5], 2.0f);

  tensor t4{{2, 2, 2, 2}};
  t4.at(1, 1, 1, 1) = 9.0f;
  EXPECT_FLOAT_EQ(t4[15], 9.0f);
}

TEST(Tensor, BoundsChecked) {
  tensor t{{2, 2}};
  EXPECT_THROW(t.at(2, 0), error);
  EXPECT_THROW(t.at(0, -1), error);
  EXPECT_THROW(t[4], error);
  EXPECT_THROW(t.item(), error);  // not a single element
}

TEST(Tensor, SizeNegativeIndexing) {
  tensor t{{2, 3, 4}};
  EXPECT_EQ(t.size(-1), 4);
  EXPECT_EQ(t.size(-3), 2);
  EXPECT_THROW(t.size(3), error);
}

TEST(Tensor, ReshapePreservesData) {
  tensor t = tensor::arange(6).reshape({2, 3});
  EXPECT_FLOAT_EQ(t.at(1, 0), 3.0f);
  tensor f = t.flatten();
  EXPECT_EQ(f.ndim(), 1);
  EXPECT_THROW(t.reshape({4}), error);
}

TEST(Tensor, InPlaceArithmetic) {
  tensor a = tensor::ones({3});
  tensor b = tensor::full({3}, 2.0f);
  a.add_(b);
  EXPECT_FLOAT_EQ(a[0], 3.0f);
  a.sub_(b);
  EXPECT_FLOAT_EQ(a[1], 1.0f);
  a.mul_(4.0f);
  EXPECT_FLOAT_EQ(a[2], 4.0f);
  a.add_scaled_(b, 0.5f);
  EXPECT_FLOAT_EQ(a[0], 5.0f);
  a.fill_(0.25f);
  EXPECT_FLOAT_EQ(a[1], 0.25f);
  a.clamp_(0.0f, 0.2f);
  EXPECT_FLOAT_EQ(a[2], 0.2f);
  tensor c = tensor::ones({4});
  EXPECT_THROW(a.add_(c), error);
}

TEST(Tensor, ByteSize) {
  EXPECT_EQ(tensor::zeros({10, 10}).byte_size(), 400);
}

TEST(Ops, ElementwiseBinary) {
  tensor a{{3}, {1, 2, 3}};
  tensor b{{3}, {4, 5, 6}};
  EXPECT_FLOAT_EQ(ops::add(a, b)[1], 7.0f);
  EXPECT_FLOAT_EQ(ops::sub(a, b)[0], -3.0f);
  EXPECT_FLOAT_EQ(ops::mul(a, b)[2], 18.0f);
  tensor c{{2}, {1, 2}};
  EXPECT_THROW(ops::add(a, c), error);
}

TEST(Ops, ElementwiseUnary) {
  tensor a{{4}, {-2, -0.5f, 0, 3}};
  EXPECT_FLOAT_EQ(ops::relu(a)[0], 0.0f);
  EXPECT_FLOAT_EQ(ops::relu(a)[3], 3.0f);
  EXPECT_FLOAT_EQ(ops::abs(a)[1], 0.5f);
  EXPECT_FLOAT_EQ(ops::sign(a)[0], -1.0f);
  EXPECT_FLOAT_EQ(ops::sign(a)[2], 0.0f);
  EXPECT_FLOAT_EQ(ops::sign(a)[3], 1.0f);
  EXPECT_NEAR(ops::exp(a)[2], 1.0f, 1e-6f);
  EXPECT_NEAR(ops::tanh(a)[2], 0.0f, 1e-6f);
  EXPECT_FLOAT_EQ(ops::clamp(a, -1, 1)[0], -1.0f);
  EXPECT_FLOAT_EQ(ops::map(a, [](float x) { return x * 10; })[3], 30.0f);
  EXPECT_FLOAT_EQ(ops::add_scalar(a, 1.0f)[2], 1.0f);
  EXPECT_FLOAT_EQ(ops::mul_scalar(a, -2.0f)[0], 4.0f);
}

TEST(Ops, Reductions) {
  tensor a{{4}, {1, -2, 3, 0}};
  EXPECT_FLOAT_EQ(ops::sum(a), 2.0f);
  EXPECT_FLOAT_EQ(ops::mean(a), 0.5f);
  EXPECT_FLOAT_EQ(ops::max(a), 3.0f);
  EXPECT_FLOAT_EQ(ops::min(a), -2.0f);
  EXPECT_EQ(ops::argmax(a), 2);
  EXPECT_NEAR(ops::norm_l2(tensor{{2}, {3, 4}}), 5.0f, 1e-6f);
  EXPECT_FLOAT_EQ(ops::norm_linf(a), 3.0f);
  EXPECT_FLOAT_EQ(ops::dot(a, a), 14.0f);
}

TEST(Ops, ArgmaxLastDim) {
  tensor logits{{2, 3}, {0.1f, 0.9f, 0.0f, 2.0f, -1.0f, 1.0f}};
  tensor preds = ops::argmax_lastdim(logits);
  EXPECT_EQ(preds.shape(), (shape_t{2}));
  EXPECT_FLOAT_EQ(preds[0], 1.0f);
  EXPECT_FLOAT_EQ(preds[1], 0.0f);
}

TEST(Ops, MatmulKnownValues) {
  tensor a{{2, 2}, {1, 2, 3, 4}};
  tensor b{{2, 2}, {5, 6, 7, 8}};
  tensor c = ops::matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 43.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 50.0f);
  EXPECT_THROW(ops::matmul(a, tensor::zeros({3, 2})), error);
}

TEST(Ops, MatmulIdentity) {
  rng g{5};
  tensor a = tensor::randn(g, {4, 4});
  tensor eye = tensor::zeros({4, 4});
  for (std::int64_t i = 0; i < 4; ++i) eye.at(i, i) = 1.0f;
  tensor c = ops::matmul(a, eye);
  for (std::int64_t i = 0; i < a.numel(); ++i) EXPECT_FLOAT_EQ(c[i], a[i]);
}

TEST(Ops, BatchedMatmul) {
  rng g{6};
  tensor a = tensor::randn(g, {3, 2, 4});
  tensor b = tensor::randn(g, {3, 4, 5});
  tensor c = ops::bmm(a, b);
  EXPECT_EQ(c.shape(), (shape_t{3, 2, 5}));
  // batch 1 equals the standalone matmul of its slices
  tensor a1{{2, 4}};
  tensor b1{{4, 5}};
  for (std::int64_t i = 0; i < 8; ++i) a1[i] = a[8 + i];
  for (std::int64_t i = 0; i < 20; ++i) b1[i] = b[20 + i];
  tensor c1 = ops::matmul(a1, b1);
  for (std::int64_t i = 0; i < 10; ++i) EXPECT_NEAR(c[10 + i], c1[i], 1e-5f);
}

TEST(Ops, Transpose) {
  tensor a{{2, 3}, {1, 2, 3, 4, 5, 6}};
  tensor t = ops::transpose2d(a);
  EXPECT_EQ(t.shape(), (shape_t{3, 2}));
  EXPECT_FLOAT_EQ(t.at(2, 1), 6.0f);

  tensor b = a.reshape({1, 2, 3});
  tensor bt = ops::transpose_last2(b);
  EXPECT_EQ(bt.shape(), (shape_t{1, 3, 2}));
  EXPECT_FLOAT_EQ(bt.at(0, 0, 1), 4.0f);
}

TEST(Serialize, RoundTrip) {
  rng g{3};
  tensor t = tensor::randn(g, {2, 3, 4});
  byte_buffer buf = to_bytes(t);
  tensor back = from_bytes(buf);
  ASSERT_TRUE(back.same_shape(t));
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_FLOAT_EQ(back[i], t[i]);
}

TEST(Serialize, MultipleTensorsSequential) {
  byte_buffer buf;
  serialize_tensor(tensor::ones({2}), buf);
  serialize_tensor(tensor::full({3}, 2.0f), buf);
  std::size_t offset = 0;
  tensor a = deserialize_tensor(buf, offset);
  tensor b = deserialize_tensor(buf, offset);
  EXPECT_EQ(offset, buf.size());
  EXPECT_FLOAT_EQ(a[0], 1.0f);
  EXPECT_FLOAT_EQ(b[2], 2.0f);
}

TEST(Serialize, TruncatedThrows) {
  byte_buffer buf = to_bytes(tensor::ones({4}));
  buf.resize(buf.size() - 3);
  EXPECT_THROW(from_bytes(buf), error);
}

TEST(Serialize, TrailingBytesThrow) {
  byte_buffer buf = to_bytes(tensor::ones({4}));
  buf.push_back(0);
  EXPECT_THROW(from_bytes(buf), error);
}

// Regression: the float vector was allocated before the length check, so a
// 16-byte blob declaring 2^40 floats asked for 4 TiB instead of throwing.
TEST(Serialize, HugeDeclaredShapeThrowsBeforeAllocating) {
  const std::int64_t header[2] = {1, std::int64_t{1} << 40};  // rank, extent
  byte_buffer buf(sizeof(header));
  std::memcpy(buf.data(), header, sizeof(header));
  EXPECT_THROW(from_bytes(buf), error);
}

// Regression: read_raw checked `offset + n <= size`, which wraps for an
// offset near SIZE_MAX and let the read through.
TEST(Serialize, OffsetPastEndThrows) {
  const byte_buffer buf = to_bytes(tensor::ones({4}));
  const std::size_t past_end = std::numeric_limits<std::size_t>::max() - 3;
  std::size_t offset = past_end;
  EXPECT_THROW(deserialize_tensor(buf, offset), error);
  EXPECT_EQ(offset, past_end);  // rejected before anything was read
}

TEST(Rng, ForkIndependence) {
  rng root{42};
  rng a = root.fork(0);
  rng b = root.fork(1);
  rng a2 = root.fork(0);
  EXPECT_EQ(a.next_u64(), a2.next_u64());
  // different streams should diverge
  rng c = root.fork(2);
  EXPECT_NE(b.next_u64(), c.next_u64());
}

TEST(Rng, ForkStableRegardlessOfParentDraws) {
  rng r1{42};
  (void)r1.uniform();
  (void)r1.normal();
  rng r2{42};
  EXPECT_EQ(r1.fork(5).next_u64(), r2.fork(5).next_u64());
}

TEST(Matmul, ZeroTimesNonFiniteStillPropagates) {
  // Regression: the zero-skip fast path used to drop NaN/Inf coming from
  // the B operand — a poisoned update could vanish through a zero weight.
  tensor a{shape_t{1, 2}};
  a[0] = 0.0f;
  a[1] = 0.0f;
  tensor b{shape_t{2, 1}};
  b[0] = std::numeric_limits<float>::quiet_NaN();
  b[1] = 1.0f;
  const tensor out = ops::matmul(a, b);
  EXPECT_TRUE(std::isnan(out[0]));

  b[0] = std::numeric_limits<float>::infinity();
  EXPECT_TRUE(std::isnan(ops::matmul(a, b)[0]));  // 0 * Inf = NaN
}

TEST(Matmul, ZeroSkipFastPathStaysExactOnFiniteInputs) {
  rng g{7};
  tensor a = tensor::randn(g, {5, 4});
  a.at(1, 2) = 0.0f;  // exercise the skip
  a.at(3, 0) = 0.0f;
  tensor b = tensor::randn(g, {4, 3});
  const tensor out = ops::matmul(a, b);
  for (std::int64_t i = 0; i < 5; ++i)
    for (std::int64_t j = 0; j < 3; ++j) {
      float acc = 0.0f;
      // detail::fmadd: the kernels' rounding choice, fused on PELTA_NATIVE.
      for (std::int64_t k = 0; k < 4; ++k) acc = ops::detail::fmadd(a.at(i, k), b.at(k, j), acc);
      EXPECT_FLOAT_EQ(out.at(i, j), acc);
    }
}

TEST(Bmm, NanInOneBatchPropagatesOnlyThere) {
  tensor a = tensor::zeros({2, 1, 1});
  tensor b = tensor::ones({2, 1, 1});
  b[0] = std::numeric_limits<float>::quiet_NaN();
  const tensor out = ops::bmm(a, b);
  EXPECT_TRUE(std::isnan(out[0]));   // 0 * NaN
  EXPECT_FLOAT_EQ(out[1], 0.0f);     // finite batch untouched
}

TEST(Matmul, ParallelRowSplitMatchesSerial) {
  // Big enough to cross the parallel dispatch threshold; rows are disjoint,
  // so the pooled result must be bit-identical to the forced-serial one.
  rng g{11};
  const tensor a = tensor::randn(g, {64, 32});
  const tensor b = tensor::randn(g, {32, 48});
  tensor serial;
  {
    serial_guard guard;
    serial = ops::matmul(a, b);
  }
  const tensor pooled = ops::matmul(a, b);
  ASSERT_TRUE(serial.same_shape(pooled));
  for (std::int64_t i = 0; i < serial.numel(); ++i) EXPECT_EQ(serial[i], pooled[i]);
}

TEST(Parallel, MatchesSerialExecution) {
  std::vector<std::int64_t> out(1000, 0);
  parallel_for(1000, [&](std::int64_t i) { out[static_cast<std::size_t>(i)] = i * i; });
  for (std::int64_t i = 0; i < 1000; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i * i);
}

TEST(Parallel, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(64, [](std::int64_t i) {
        if (i == 13) throw error{"boom"};
      }),
      error);
}

TEST(Parallel, ZeroAndNegativeCountsAreNoops) {
  bool ran = false;
  parallel_for(0, [&](std::int64_t) { ran = true; });
  parallel_for(-5, [&](std::int64_t) { ran = true; });
  EXPECT_FALSE(ran);
}

}  // namespace
}  // namespace pelta
