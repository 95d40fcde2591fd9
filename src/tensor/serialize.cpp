#include "tensor/serialize.h"

#include <cstring>

namespace pelta {

namespace {

void append_raw(byte_buffer& out, const void* src, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(src);
  out.insert(out.end(), p, p + n);
}

void read_raw(const byte_buffer& buf, std::size_t& offset, void* dst, std::size_t n) {
  PELTA_CHECK_MSG(offset <= buf.size() && n <= buf.size() - offset,
                  "truncated tensor buffer: need " << n << " at " << offset << " of " << buf.size());
  std::memcpy(dst, buf.data() + offset, n);
  offset += n;
}

}  // namespace

std::size_t serialize_tensor(const tensor& t, byte_buffer& out) {
  const std::size_t before = out.size();
  const std::int64_t rank = t.ndim();
  append_raw(out, &rank, sizeof(rank));
  for (std::int64_t d : t.shape()) append_raw(out, &d, sizeof(d));
  append_raw(out, t.data().data(), t.data().size() * sizeof(float));
  return out.size() - before;
}

tensor deserialize_tensor(const byte_buffer& buf, std::size_t& offset) {
  std::int64_t rank = 0;
  read_raw(buf, offset, &rank, sizeof(rank));
  PELTA_CHECK_MSG(rank >= 0 && rank <= 8, "implausible tensor rank " << rank);
  shape_t shape(static_cast<std::size_t>(rank));
  for (auto& d : shape) read_raw(buf, offset, &d, sizeof(d));
  const std::int64_t n = numel_of(shape);  // untrusted: check the length before allocating
  PELTA_CHECK_MSG(static_cast<std::uint64_t>(n) <= (buf.size() - offset) / sizeof(float),
                  "truncated tensor buffer: shape " << to_string(shape) << " at " << offset);
  std::vector<float> data(static_cast<std::size_t>(n));
  read_raw(buf, offset, data.data(), data.size() * sizeof(float));
  return tensor{std::move(shape), std::move(data)};
}

byte_buffer to_bytes(const tensor& t) {
  byte_buffer out;
  serialize_tensor(t, out);
  return out;
}

tensor from_bytes(const byte_buffer& buf) {
  std::size_t offset = 0;
  tensor t = deserialize_tensor(buf, offset);
  PELTA_CHECK_MSG(offset == buf.size(), "trailing bytes after tensor payload");
  return t;
}

}  // namespace pelta
