// R7 fixture (suppressed): a double-precision exp meant as one rides a
// reasoned allow, trailing or on the line above.
#include <cmath>

double normalised(double x, double logz) {
  const double a = std::exp(x - logz);  // pelta-lint: allow(R7) double-precision softmax on purpose
  // pelta-lint: allow(R7) double reference for the simulated clock draw
  return a + std::exp(-x);
}
