// Host-independent exp and tanh for the library's float paths: GELU,
// softmax, log-softmax, cross-entropy's float exp, ops::exp and ops::tanh.
//
// Why not libm: glibc's expf/tanhf results are not pinned across glibc
// versions, so calling them would make the bit-identity contract (README
// "Tensor backend") depend on the host's C library, and a per-element libm
// call was the largest cost left in the ViT forward. These are built only
// from range reduction plus a fixed polynomial, evaluated as plain
// multiply-then-add (never detail::fmadd, which becomes an FMA under
// PELTA_NATIVE) in tier_body.h, which compiles with the library-wide
// -ffp-contract=off (src/CMakeLists.txt) into every kernel tier
// (kernel_tiers.h). Every output bit is therefore the same on the portable
// and the native build, on every tier and on any host.
//
// Each function has ONE lane-generic vector body, run at the active tier's
// width (4, 8 or 16 lanes). The array maps run it over full vectors and run
// the ragged tail through the same body on a zero-padded vector; the scalar
// entry is that same body on a one-element padded vector. Every operation
// is lane-wise, so a value's bits never depend on its position in an
// array, the array's length, the vector width, or which entry point
// computed it.
//
// Accuracy (tests/test_mathfn.cpp sweeps every 97th finite float against a
// double reference):
//   * exp: within 1 ulp wherever the result is a normal float; +Inf above
//     ln(FLT_MAX), gradual underflow through the denormals, +0 below
//     ~-103.97. exp(±0) == 1 exactly.
//   * tanh: within 2 ulp everywhere; odd (tanh(-x) == -tanh(x) bit for bit,
//     including -0); exactly ±1 from |x| ≈ 9.01 on.
//   * NaN in, NaN out (explicitly, before any exponent arithmetic).
#pragma once

#include <cstdint>

namespace pelta::fn {

/// e^x (see the header comment for the error bound).
float exp(float x);

/// tanh(x) (see the header comment for the error bound).
float tanh(float x);

/// out[i] = fn::exp(in[i]) for i in [0, n). `in` and `out` may be the same
/// array (in-place map); they must not otherwise overlap.
void exp(const float* in, float* out, std::int64_t n);

/// out[i] = fn::tanh(in[i]) for i in [0, n). Same aliasing rule as exp.
void tanh(const float* in, float* out, std::int64_t n);

}  // namespace pelta::fn
