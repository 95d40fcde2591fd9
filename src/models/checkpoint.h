// Model-state codec and checkpointing — a trained model's full state
// (parameters + batch-norm running statistics).
//
// save_state/load_state is the one codec for that state. It is the FL wire
// payload: aggregating only the parameters would leave the global model
// with untrained BN statistics — the classic BN-in-FL pitfall — so
// broadcast, upload and FedAvg all carry both. The wire is transient by
// design; a checkpoint wraps the same payload in what a deployment stores
// between sessions: examples and downstream users train once and reload,
// and a defender can pin the exact weights whose frontier the enclave
// protects. The file format is versioned, self-describing (architecture
// name + per-tensor shapes) and integrity-checked, so a corrupted or
// mismatched file fails loudly instead of silently degrading the model.
//
// Layout (little-endian):
//   magic "PELTACKP" | u32 version | u32 name length | name bytes
//   | u64 payload length | payload (serialized tensors: params in creation
//   order, then BN buffers) | u64 FNV-1a checksum of the payload
#pragma once

#include <string>

#include "models/model.h"
#include "tensor/serialize.h"

namespace pelta::models {

/// Serialize `m`'s parameters (creation order) followed by each batch-norm
/// layer's running mean and variance.
byte_buffer save_state(const model& m);

/// Install a save_state payload into an identically structured model.
/// Throws pelta::error on a short payload, a shape mismatch or trailing
/// bytes — and then leaves every parameter and batch-norm buffer as it was.
void load_state(model& m, const byte_buffer& buf);

/// Raised on any malformed, truncated, corrupted or mismatched checkpoint.
class checkpoint_error : public error {
public:
  using error::error;
};

/// Write `m`'s full state to `path` (overwrites).
void save_checkpoint(const model& m, const std::string& path);

/// Restore a checkpoint into an identically-architected model. The stored
/// architecture name must match m.name() unless `ignore_name` is set
/// (loading "ViT-B/16" weights into a model registered under another label).
void load_checkpoint(model& m, const std::string& path, bool ignore_name = false);

/// Architecture name recorded in a checkpoint (cheap header read).
std::string checkpoint_model_name(const std::string& path);

}  // namespace pelta::models
