// Dense tensor kernels: elementwise maps, reductions, matrix products.
//
// These free functions are the numeric backbone used by the autodiff ops;
// they perform full shape checking and always return fresh tensors.
#pragma once

#include <functional>

#include "tensor/tensor.h"

namespace pelta::ops {

// ---- elementwise binary -----------------------------------------------------

tensor add(const tensor& a, const tensor& b);
tensor sub(const tensor& a, const tensor& b);
tensor mul(const tensor& a, const tensor& b);

// ---- scalar -----------------------------------------------------------------

tensor add_scalar(const tensor& a, float s);
tensor mul_scalar(const tensor& a, float s);

// ---- elementwise unary --------------------------------------------------------

tensor relu(const tensor& a);
/// fn::exp per element (tensor/mathfn.h: host-independent bits).
tensor exp(const tensor& a);
/// fn::tanh per element (tensor/mathfn.h: host-independent bits).
tensor tanh(const tensor& a);
tensor abs(const tensor& a);
/// -1, 0 or +1 per element (the FGSM/PGD "sign" operator).
tensor sign(const tensor& a);
tensor clamp(const tensor& a, float lo, float hi);
/// Apply an arbitrary float->float map (used by tests and data generation).
/// Like every elementwise op, large tensors split across the thread pool:
/// `f` must be pure (no internal state, safe to call concurrently and in
/// any element order).
tensor map(const tensor& a, const std::function<float(float)>& f);

// ---- reductions ---------------------------------------------------------------

float sum(const tensor& a);
float mean(const tensor& a);
float max(const tensor& a);
float min(const tensor& a);
/// Index of the maximum element (flat index).
std::int64_t argmax(const tensor& a);
/// Argmax over the last dimension; returns a tensor of indices-as-floats with
/// the leading shape. For logits [B, C] this yields predictions [B].
tensor argmax_lastdim(const tensor& a);

/// l2 norm of the whole tensor.
float norm_l2(const tensor& a);
/// l-infinity norm of the whole tensor.
float norm_linf(const tensor& a);
/// Dot product of two same-shape tensors.
float dot(const tensor& a, const tensor& b);

// ---- linear algebra -------------------------------------------------------------

/// [M,K] x [K,N] -> [M,N].
tensor matmul(const tensor& a, const tensor& b);
/// Batched [B,M,K] x [B,K,N] -> [B,M,N].
tensor bmm(const tensor& a, const tensor& b);
/// Batched [B,M,K] x [B,N,K]ᵀ -> [B,M,N]; bit-identical to
/// bmm(a, transpose_last2(bt)).
tensor bmm_bt(const tensor& a, const tensor& bt);
/// [M,N] -> [N,M].
tensor transpose2d(const tensor& a);
/// [B,M,N] -> [B,N,M].
tensor transpose_last2(const tensor& a);

// ---- raw row-major storage --------------------------------------------------
// For ops that already hold contiguous buffers (e.g. [B,T,P] token rows) and
// would otherwise pay a reshape copy to reach the tensor forms above.

/// out[M,N] += a[M,K] x b[K,N], rows split across the pool exactly as matmul
/// splits them, so the result is bit-identical to matmul at every
/// PELTA_THREADS. With b_transposed, b is stored as [N,K] (out += a x bᵀ).
void matmul_accumulate(const float* a, const float* b, float* out, std::int64_t m, std::int64_t k,
                       std::int64_t n, bool b_transposed = false);
/// out[N,M] = a[M,N]ᵀ.
void transpose_into(const float* a, float* out, std::int64_t m, std::int64_t n);

}  // namespace pelta::ops
