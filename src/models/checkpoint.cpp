#include "models/checkpoint.h"

#include <cstring>
#include <fstream>

namespace pelta::models {

namespace {

constexpr char k_magic[8] = {'P', 'E', 'L', 'T', 'A', 'C', 'K', 'P'};
constexpr std::uint32_t k_version = 1;

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

template <typename T>
void write_pod(std::ofstream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_pod(std::ifstream& in, const char* what) {
  T v{};
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!in) throw checkpoint_error{std::string{"truncated checkpoint while reading "} + what};
  return v;
}

}  // namespace

byte_buffer save_state(const model& m) {
  byte_buffer out = m.params().save_values();
  for (const ad::batchnorm_stats* s : m.batchnorm_buffers()) {
    serialize_tensor(s->running_mean, out);
    serialize_tensor(s->running_var, out);
  }
  return out;
}

void load_state(model& m, const byte_buffer& buf) {
  // Decode and check everything first: a rejected payload must leave the
  // model exactly as it was, not half-overwritten.
  std::size_t offset = 0;
  std::vector<tensor> params = m.params().decode_values_at(buf, offset);
  const std::vector<ad::batchnorm_stats*> stats = m.batchnorm_buffers();
  std::vector<tensor> buffers;  // mean, var per batch-norm layer
  buffers.reserve(2 * stats.size());
  for (const ad::batchnorm_stats* s : stats) {
    tensor mean = deserialize_tensor(buf, offset);
    tensor var = deserialize_tensor(buf, offset);
    PELTA_CHECK_MSG(mean.same_shape(s->running_mean) && var.same_shape(s->running_var),
                    "batch-norm buffer shape mismatch on install");
    buffers.push_back(std::move(mean));
    buffers.push_back(std::move(var));
  }
  PELTA_CHECK_MSG(offset == buf.size(), "trailing bytes in model-state payload");
  m.params().install_values(std::move(params));
  for (std::size_t i = 0; i < stats.size(); ++i) {
    stats[i]->running_mean = std::move(buffers[2 * i]);
    stats[i]->running_var = std::move(buffers[2 * i + 1]);
  }
}

void save_checkpoint(const model& m, const std::string& path) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  if (!out) throw checkpoint_error{"cannot open checkpoint for writing: " + path};

  out.write(k_magic, sizeof(k_magic));
  write_pod(out, k_version);
  const std::string& name = m.name();
  write_pod(out, static_cast<std::uint32_t>(name.size()));
  out.write(name.data(), static_cast<std::streamsize>(name.size()));

  const byte_buffer payload = save_state(m);
  write_pod(out, static_cast<std::uint64_t>(payload.size()));
  out.write(reinterpret_cast<const char*>(payload.data()),
            static_cast<std::streamsize>(payload.size()));
  write_pod(out, fnv1a(payload.data(), payload.size()));
  if (!out) throw checkpoint_error{"short write while saving checkpoint: " + path};
}

namespace {

struct header {
  std::string name;
  std::uint64_t payload_size = 0;
};

header read_header(std::ifstream& in, const std::string& path) {
  char magic[sizeof(k_magic)];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, k_magic, sizeof(k_magic)) != 0)
    throw checkpoint_error{"not a PELTA checkpoint: " + path};
  const auto version = read_pod<std::uint32_t>(in, "version");
  if (version != k_version)
    throw checkpoint_error{"unsupported checkpoint version " + std::to_string(version)};
  const auto name_len = read_pod<std::uint32_t>(in, "name length");
  if (name_len > 4096) throw checkpoint_error{"implausible checkpoint name length"};
  header h;
  h.name.resize(name_len);
  in.read(h.name.data(), static_cast<std::streamsize>(name_len));
  if (!in) throw checkpoint_error{"truncated checkpoint while reading the name"};
  h.payload_size = read_pod<std::uint64_t>(in, "payload length");
  return h;
}

}  // namespace

void load_checkpoint(model& m, const std::string& path, bool ignore_name) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw checkpoint_error{"cannot open checkpoint: " + path};
  const header h = read_header(in, path);
  if (!ignore_name && h.name != m.name())
    throw checkpoint_error{"checkpoint holds '" + h.name + "', model is '" + m.name() + "'"};

  byte_buffer payload(h.payload_size);
  in.read(reinterpret_cast<char*>(payload.data()), static_cast<std::streamsize>(payload.size()));
  if (!in) throw checkpoint_error{"truncated checkpoint payload: " + path};
  const auto stored_sum = read_pod<std::uint64_t>(in, "checksum");
  if (fnv1a(payload.data(), payload.size()) != stored_sum)
    throw checkpoint_error{"checkpoint payload corrupted (checksum mismatch): " + path};

  try {
    load_state(m, payload);
  } catch (const error& e) {
    throw checkpoint_error{"checkpoint does not fit the architecture: " + std::string{e.what()}};
  }
}

std::string checkpoint_model_name(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw checkpoint_error{"cannot open checkpoint: " + path};
  return read_header(in, path).name;
}

}  // namespace pelta::models
