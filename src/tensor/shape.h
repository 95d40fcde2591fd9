// Tensor shape type and row-major index arithmetic.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <numeric>
#include <ostream>
#include <string>
#include <vector>

#include "tensor/check.h"

namespace pelta {

/// Row-major tensor shape. Empty shape denotes a scalar (numel == 1).
using shape_t = std::vector<std::int64_t>;

/// Human-readable shape, e.g. "[2, 3, 4]".
inline std::string to_string(const shape_t& s) {
  std::string out = "[";
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (i != 0) out += ", ";
    out += std::to_string(s[i]);
  }
  out += "]";
  return out;
}

/// Number of elements described by a shape (product of extents). Throws
/// pelta::error when the product does not fit in int64 (a declared shape
/// may come from untrusted bytes; the multiply must never overflow).
inline std::int64_t numel_of(const shape_t& s) {
  std::int64_t n = 1;
  for (std::int64_t d : s) {
    PELTA_CHECK_MSG(d >= 0, "negative extent " << d);
    std::int64_t next = 0;
    PELTA_CHECK_MSG(!__builtin_mul_overflow(n, d, &next),
                    "shape " << to_string(s) << " has more than 2^63 - 1 elements");
    n = next;
  }
  return n;
}

inline std::ostream& operator<<(std::ostream& os, const shape_t& s) {
  return os << to_string(s);
}

/// Row-major strides for a shape (innermost dimension has stride 1). Throws
/// pelta::error past int64, which a zero extent hides from numel_of.
inline shape_t strides_of(const shape_t& s) {
  shape_t st(s.size(), 1);
  for (int i = static_cast<int>(s.size()) - 2; i >= 0; --i)
    PELTA_CHECK_MSG(!__builtin_mul_overflow(st[i + 1], s[i + 1], &st[i]),
                    "shape " << to_string(s) << " has a stride past 2^63 - 1");
  return st;
}

}  // namespace pelta
