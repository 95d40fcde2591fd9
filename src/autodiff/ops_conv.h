// Spatial ops: convolution, pooling, ViT patch extraction.
#pragma once

#include "autodiff/op.h"

namespace pelta::ad {

/// 2-d convolution. Parents: (x [B,C,H,W], W [OC,C,KH,KW]) or
/// (x, W, b [OC]) when with_bias. The zero `pad` models the padding
/// operation the paper folds into the first shielded BiT layer.
op_ptr make_conv2d(std::int64_t stride, std::int64_t pad, bool with_bias);

/// Introspection for the quantizing compile pass (nn/compile): recover a
/// conv2d instance's geometry (bias presence follows from its parent count).
/// Returns false for any other op.
bool conv2d_geometry_of(const op& o, std::int64_t* stride, std::int64_t* pad);

/// 2x2 max pooling, stride 2. Parent: (x).
op_ptr make_maxpool2x2();

/// Global average pooling [B,C,H,W] -> [B,C]. Parent: (x).
op_ptr make_global_avgpool();

/// ViT patch extraction: [B,C,H,W] -> [B, T, P] with T = (H/ps)*(W/ps)
/// patches of P = C*ps*ps features, row-major patch order. Parent: (x).
op_ptr make_patchify(std::int64_t patch_size);

}  // namespace pelta::ad
