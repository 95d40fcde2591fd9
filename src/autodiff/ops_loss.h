// Loss ops.
#pragma once

#include "autodiff/op.h"

namespace pelta::ad {

/// Mean cross-entropy over a batch.
/// Parents: (logits [B,C], labels [B] as a constant tensor of class indices).
/// Output: scalar. Labels receive a zero gradient (they are constants).
op_ptr make_cross_entropy();

}  // namespace pelta::ad
