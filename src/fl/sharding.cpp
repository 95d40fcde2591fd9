#include "fl/sharding.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace pelta::fl {

const char* shard_strategy_name(shard_strategy strategy) {
  switch (strategy) {
    case shard_strategy::iid: return "iid";
    case shard_strategy::by_class: return "by-class";
    case shard_strategy::dirichlet: return "dirichlet";
  }
  return "?";
}

namespace {

std::int64_t label_of(const data::dataset& ds, std::int64_t index) {
  return static_cast<std::int64_t>(ds.train_labels()[index]);
}

/// Move one sample from the largest shard into each empty one.
void fix_empty_shards(std::vector<std::vector<std::int64_t>>& shards) {
  for (auto& shard : shards) {
    if (!shard.empty()) continue;
    auto largest = std::max_element(
        shards.begin(), shards.end(),
        [](const auto& a, const auto& b) { return a.size() < b.size(); });
    PELTA_CHECK_MSG(largest->size() >= 2, "not enough samples to populate every client");
    shard.push_back(largest->back());
    largest->pop_back();
  }
}

}  // namespace

std::vector<std::vector<std::int64_t>> make_shards(const data::dataset& ds,
                                                   std::int64_t clients,
                                                   const sharding_config& config,
                                                   std::uint64_t seed) {
  PELTA_CHECK_MSG(clients >= 1, "need at least one client");
  PELTA_CHECK_MSG(ds.train_size() >= clients, "more clients than training samples");

  std::vector<std::int64_t> order(static_cast<std::size_t>(ds.train_size()));
  std::iota(order.begin(), order.end(), 0);
  rng gen{seed};

  std::vector<std::vector<std::int64_t>> shards(static_cast<std::size_t>(clients));
  switch (config.strategy) {
    case shard_strategy::iid: {
      std::shuffle(order.begin(), order.end(), gen.engine());
      for (std::size_t i = 0; i < order.size(); ++i)
        shards[i % static_cast<std::size_t>(clients)].push_back(order[i]);
      break;
    }
    case shard_strategy::by_class: {
      // label-major, random within a label, then contiguous equal chunks
      std::shuffle(order.begin(), order.end(), gen.engine());
      std::stable_sort(order.begin(), order.end(), [&](std::int64_t a, std::int64_t b) {
        return label_of(ds, a) < label_of(ds, b);
      });
      const std::size_t per =
          (order.size() + static_cast<std::size_t>(clients) - 1) / static_cast<std::size_t>(clients);
      for (std::size_t i = 0; i < order.size(); ++i)
        shards[std::min(i / per, static_cast<std::size_t>(clients) - 1)].push_back(order[i]);
      break;
    }
    case shard_strategy::dirichlet: {
      PELTA_CHECK_MSG(config.dirichlet_alpha > 0.0f, "dirichlet_alpha must be positive");
      // group indices by label
      std::vector<std::vector<std::int64_t>> by_label(
          static_cast<std::size_t>(ds.config().classes));
      for (std::int64_t i : order) by_label[static_cast<std::size_t>(label_of(ds, i))].push_back(i);

      std::gamma_distribution<double> gamma{static_cast<double>(config.dirichlet_alpha), 1.0};
      for (auto& members : by_label) {
        std::shuffle(members.begin(), members.end(), gen.engine());
        // p ~ Dir(α) over clients for this class
        std::vector<double> p(static_cast<std::size_t>(clients));
        double total = 0.0;
        for (double& v : p) {
          v = std::max(gamma(gen.engine()), 1e-12);
          total += v;
        }
        // cumulative split of this class's members by p
        double cum = 0.0;
        std::size_t start = 0;
        for (std::size_t c = 0; c < p.size(); ++c) {
          cum += p[c] / total;
          const auto end = c + 1 == p.size()
                               ? members.size()
                               : static_cast<std::size_t>(
                                     std::llround(cum * static_cast<double>(members.size())));
          for (std::size_t i = start; i < std::min(end, members.size()); ++i)
            shards[c].push_back(members[i]);
          start = std::max(start, std::min(end, members.size()));
        }
      }
      break;
    }
  }

  fix_empty_shards(shards);

  std::size_t covered = 0;
  for (const auto& s : shards) covered += s.size();
  PELTA_CHECK_MSG(covered == order.size(), "sharding lost samples");
  return shards;
}

double shard_label_entropy(const data::dataset& ds, const std::vector<std::int64_t>& shard) {
  PELTA_CHECK_MSG(!shard.empty(), "entropy of an empty shard");
  std::vector<double> counts(static_cast<std::size_t>(ds.config().classes), 0.0);
  for (std::int64_t i : shard) counts[static_cast<std::size_t>(label_of(ds, i))] += 1.0;
  double h = 0.0;
  for (double c : counts) {
    if (c == 0.0) continue;
    const double p = c / static_cast<double>(shard.size());
    h -= p * std::log(p);
  }
  return h;
}

}  // namespace pelta::fl
