// R7 fixture (hit): libm exp/tanh in a float layer, qualified and C-style.
#include <cmath>

float gelu_t(float u) { return std::tanh(u); }
float softmax_term(float x, float m) { return std::exp(x - m); }
float c_exp(float x) { return expf(x); }
float c_tanh(float x) { return ::tanhf(x); }
