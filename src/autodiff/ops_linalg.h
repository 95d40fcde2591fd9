// Linear-algebra and tensor-layout ops.
#pragma once

#include "autodiff/op.h"
#include "tensor/shape.h"

namespace pelta::ad {

/// Dense layer over any leading rank: (x [..., In], W [In,Out], b [Out])
/// -> [..., Out]; parents (x, W) or (x, W, b). One op serves every dense
/// projection: classifier heads on [B,In], and the ViT patch embedding E and
/// q/k/v/output/MLP projections on tokens [B,T,In].
op_ptr make_linear(bool with_bias);

/// Batched [B,M,K] x [B,K,N] -> [B,M,N] (attention context P·V).
op_ptr make_bmm();

/// View with a new shape (numel preserved).
op_ptr make_reshape(shape_t new_shape);

/// Target shape of a reshape op instance, nullptr for any other op. The op
/// classes live in this TU's anonymous namespace, so introspection for the
/// quantizing compile pass (nn/compile) is exported here instead of via
/// header-visible types.
const shape_t* reshape_shape_of(const op& o);

/// [B,T,H·dh] -> [B·H,T,dh]: row b·H+h holds head h of batch row b, so one
/// batched product runs every head. The last dim must divide by `heads`.
op_ptr make_split_heads(std::int64_t heads);

/// [B·H,T,dh] -> [B,T,H·dh], the inverse of split_heads; each one's backward
/// is the other's forward. The leading dim must divide by `heads`.
op_ptr make_merge_heads(std::int64_t heads);

/// Parents (token [D], tokens [B,T,D]) -> [B,T+1,D]; the learnable class
/// token is broadcast across the batch and prepended as row 0 (ViT).
op_ptr make_prepend_token();

/// [B,T,D] -> [B,D], reading row `t` (class-token readout).
op_ptr make_slice_row(std::int64_t t);

}  // namespace pelta::ad
