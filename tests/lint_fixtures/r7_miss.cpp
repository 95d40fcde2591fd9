// R7 fixture (miss): the float paths call fn::exp / fn::tanh. Prose such as
// std::exp or tanhf (like this comment) is scrubbed before matching, and so
// is the string literal below; other libm names are not R7's business.
#include <cmath>

#include "tensor/mathfn.h"

float gelu_t(float u) { return fn::tanh(u); }
void softmax_row(float* row, long n) { fn::exp(row, row, n); }
float neighbours(float x) { return std::exp2(x) + std::expm1(x) + std::log(x); }
const char* describe() { return "std::tanh"; }
float exp_body(float x) { return x; }
