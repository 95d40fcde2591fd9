// Elementwise, activation and softmax ops (factory functions returning
// op_ptr).
#pragma once

#include "autodiff/op.h"

namespace pelta::ad {

/// a + b, identical shapes.
op_ptr make_add();

/// a + b where b's shape is a suffix of a's shape (bias / position-embedding
/// broadcast); backward sums b's gradient over the leading dimensions.
op_ptr make_add_broadcast();

/// a ⊙ b, identical shapes.
op_ptr make_mul();

/// s * a for a compile-time-fixed scalar s.
op_ptr make_scale(float s);

/// s * (a + shift) for fixed scalars — the models' input normalization
/// transform (dataset mean/std folding, e.g. (x - 0.5) * 4).
op_ptr make_affine(float scale, float shift);

/// Introspection for the quantizing compile pass (nn/compile): recover the
/// fixed scalars of an affine op instance (the class lives in this TU's
/// anonymous namespace). True for an affine op, with y = scale * (x +
/// shift); false for any other op.
bool affine_params_of(const op& o, float* scale, float* shift);

op_ptr make_relu();

/// GELU with the tanh approximation (as in ViT MLP blocks).
op_ptr make_gelu();

/// Softmax over the last dimension.
op_ptr make_softmax_lastdim();

/// Parents (q [N,T,d], k [N,S,d]) -> softmax(scale · q·kᵀ) over the last
/// dim, [N,T,S]: the attention weights of every head at once (N = B·H,
/// scale = 1/√d). Bit-identical to ops::bmm_bt, a scale op and softmax in
/// sequence, without tensors for the raw and scaled scores.
op_ptr make_attention_weights(float scale);

/// Log-softmax over the last dimension (classification head).
op_ptr make_log_softmax_lastdim();

}  // namespace pelta::ad
