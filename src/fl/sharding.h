// Client data partitioning strategies for the FL substrate.
//
// The paper's evaluation assumes each client holds local private data; how
// that data is distributed across clients is the main axis real FL
// deployments vary on. Three standard partitioners:
//
//   iid       — shuffle and split evenly (the Fig. 1 baseline)
//   by_class  — label-sorted contiguous chunks: each client sees only a few
//               classes (pathological non-iid of McMahan et al.)
//   dirichlet — per class, client proportions drawn from Dir(α): α → ∞
//               approaches iid, α → 0 approaches by_class (Hsu et al.)
#pragma once

#include "data/dataset.h"

namespace pelta::fl {

enum class shard_strategy : std::uint8_t { iid, by_class, dirichlet };

const char* shard_strategy_name(shard_strategy strategy);

struct sharding_config {
  shard_strategy strategy = shard_strategy::iid;
  float dirichlet_alpha = 0.5f;  ///< concentration; smaller = more skew
};

/// Partition the dataset's train indices into `clients` disjoint shards
/// covering every sample, shuffled under `seed` (a federation passes its
/// own federation_config::seed). Every shard is guaranteed non-empty (a
/// client with no data cannot participate in a round).
std::vector<std::vector<std::int64_t>> make_shards(const data::dataset& ds,
                                                   std::int64_t clients,
                                                   const sharding_config& config,
                                                   std::uint64_t seed);

/// Shannon entropy (nats) of a shard's label distribution — the standard
/// skew diagnostic (log(classes) for uniform, 0 for single-class).
double shard_label_entropy(const data::dataset& ds, const std::vector<std::int64_t>& shard);

}  // namespace pelta::fl
