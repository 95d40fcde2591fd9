// Convolution and pooling kernels over NCHW tensors.
//
// The convolutions lower to the tiered GEMM (tensor/kernels.h):
//   * forward: im2col + GEMM. A stride-1 conv with OW == W (every 3x3
//     pad-1 conv) fills each im2col row with one shifted copy of the image
//     plane and then zeroes the out-of-window entries; other geometries
//     copy row by row.
//   * input adjoint: GEMM + col2im.
//   * weight adjoint: im2row (the transpose of im2col's matrix, read from a
//     zero-bordered staging copy of the image when pad > 0) + the plain
//     GEMM, so no column matrix is transposed per image. The bits are
//     those of im2col + gemm_accumulate_bt, which kernels.h promises equal
//     that GEMM over the materialised transpose.
// Every path gives the same bits as the element-by-element loops they
// replaced, on every kernel tier and at every PELTA_THREADS.
// Pooling and upsampling are direct loops.
#pragma once

#include "tensor/tensor.h"

namespace pelta::ops {

/// Forward 2-d convolution.
///   input  [B, C, H, W], weight [OC, C, KH, KW], bias [OC] (may be empty
///   tensor with numel 0-interpreted as shape [0]).
/// Zero padding `pad` on every side, square stride `stride`.
tensor conv2d(const tensor& input, const tensor& weight, const tensor& bias, std::int64_t stride,
              std::int64_t pad);

/// Gradients of conv2d. Returns d_input; writes d_weight/d_bias if non-null.
tensor conv2d_backward_input(const tensor& grad_out, const tensor& weight, std::int64_t stride,
                             std::int64_t pad, const shape_t& input_shape);
tensor conv2d_backward_weight(const tensor& grad_out, const tensor& input, std::int64_t stride,
                              std::int64_t pad, const shape_t& weight_shape);
tensor conv2d_backward_bias(const tensor& grad_out);

/// 2x2 max pooling with stride 2; also returns flat argmax indices for the
/// backward pass (same shape as the output). A window's maximum is seeded
/// from its own first element, so every window answers from, and routes its
/// gradient to, one of its own elements (all -Inf included); the first NaN
/// in a window is its output.
struct maxpool_result {
  tensor output;
  tensor indices;  // flat index into the input window source, as float
};
maxpool_result maxpool2x2(const tensor& input);
tensor maxpool2x2_backward(const tensor& grad_out, const tensor& indices,
                           const shape_t& input_shape);

/// Global average pooling: [B, C, H, W] -> [B, C].
tensor global_avgpool(const tensor& input);
tensor global_avgpool_backward(const tensor& grad_out, const shape_t& input_shape);

/// Nearest-neighbour / bilinear upsampling of [C, H, W] or [B, C, H, W] by an
/// integer factor (used by the synthetic dataset generator).
tensor upsample_bilinear(const tensor& input, std::int64_t factor);

}  // namespace pelta::ops
