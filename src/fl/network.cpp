#include "fl/network.h"

#include <algorithm>
#include <numeric>

#include "tensor/check.h"
#include "tensor/rng.h"

namespace pelta::fl {

std::vector<client_profile> make_client_profiles(std::int64_t clients,
                                                 const heterogeneity_config& config) {
  PELTA_CHECK_MSG(clients >= 1, "need at least one client profile");
  PELTA_CHECK_MSG(config.stragglers >= 0 && config.stragglers <= clients,
                  "straggler count " << config.stragglers << " outside [0, " << clients << "]");
  PELTA_CHECK_MSG(config.straggler_slowdown >= 1.0, "straggler_slowdown must be >= 1");
  PELTA_CHECK_MSG(config.dropout_rate >= 0.0 && config.dropout_rate < 1.0,
                  "dropout_rate " << config.dropout_rate << " outside [0, 1)");

  std::vector<client_profile> profiles(static_cast<std::size_t>(clients),
                                       client_profile{1.0, config.dropout_rate});

  if (config.stragglers > 0) {
    std::vector<std::size_t> order(profiles.size());
    std::iota(order.begin(), order.end(), 0);
    rng pick = rng{config.seed}.fork(0x57a661e5ull);
    std::shuffle(order.begin(), order.end(), pick.engine());
    for (std::int64_t s = 0; s < config.stragglers; ++s)
      profiles[order[static_cast<std::size_t>(s)]].compute_scale *= config.straggler_slowdown;
  }
  return profiles;
}

}  // namespace pelta::fl
