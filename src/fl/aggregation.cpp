#include "fl/aggregation.h"

#include <algorithm>
#include <cmath>

#include "tensor/kernels.h"  // detail::fmadd — the float-accumulation policy (R1)

namespace pelta::fl {

const char* aggregation_rule_name(aggregation_rule rule) {
  switch (rule) {
    case aggregation_rule::fedavg: return "FedAvg";
    case aggregation_rule::coordinate_median: return "coordinate median";
    case aggregation_rule::trimmed_mean: return "trimmed mean";
    case aggregation_rule::norm_clipped_mean: return "norm-clipped mean";
  }
  return "?";
}

float staleness_weight(std::int64_t staleness) {
  PELTA_CHECK_MSG(staleness >= 0, "negative staleness " << staleness);
  return 1.0f / std::sqrt(1.0f + static_cast<float>(staleness));
}

namespace {

/// trimmed_mean: fraction trimmed from EACH side; floor(n * fraction) values
/// are dropped per end, at least one when n >= 3.
constexpr float k_trim_fraction = 0.2f;

std::vector<tensor> decode_state(const byte_buffer& buf) {
  std::vector<tensor> out;
  std::size_t offset = 0;
  while (offset < buf.size()) out.push_back(deserialize_tensor(buf, offset));
  return out;
}

void check_structure(const std::vector<tensor>& reference, const std::vector<tensor>& update,
                     std::int64_t client_id) {
  PELTA_CHECK_MSG(reference.size() == update.size(),
                  "update from client " << client_id << " has mismatched tensor count");
  for (std::size_t i = 0; i < reference.size(); ++i)
    PELTA_CHECK_MSG(update[i].same_shape(reference[i]),
                    "update from client " << client_id << " has mismatched structure");
}

byte_buffer encode_state(const std::vector<tensor>& tensors) {
  byte_buffer out;
  for (const tensor& t : tensors) serialize_tensor(t, out);
  return out;
}

double delta_norm(const std::vector<tensor>& state, const std::vector<tensor>& reference) {
  double sq = 0.0;
  for (std::size_t i = 0; i < state.size(); ++i)
    for (std::int64_t j = 0; j < state[i].numel(); ++j) {
      const double d = static_cast<double>(state[i][j]) - static_cast<double>(reference[i][j]);
      sq += d * d;
    }
  return std::sqrt(sq);
}

}  // namespace

byte_buffer aggregate_states(const byte_buffer& reference,
                             const std::vector<model_update>& updates,
                             aggregation_rule rule) {
  PELTA_CHECK_MSG(!updates.empty(), "aggregate_states() without updates");
  const std::vector<tensor> ref = decode_state(reference);

  std::vector<std::vector<tensor>> states;
  states.reserve(updates.size());
  for (const model_update& u : updates) {
    PELTA_CHECK_MSG(u.sample_count > 0, "update with non-positive sample count");
    states.push_back(decode_state(u.parameters));
    check_structure(ref, states.back(), u.client_id);
  }
  const std::size_t n = states.size();

  // Per-update weights for the weighted rules: sample count scaled by the
  // staleness multiplier, normalized to sum to 1. The order-statistic rules
  // (coordinate_median, trimmed_mean) ignore these by design.
  std::vector<float> weights(n);
  {
    double total = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      const double w = static_cast<double>(updates[c].sample_count) *
                       static_cast<double>(staleness_weight(updates[c].staleness));
      weights[c] = static_cast<float>(w);
      total += w;
    }
    PELTA_CHECK_MSG(total > 0.0, "aggregation weights sum to zero");
    for (std::size_t c = 0; c < n; ++c)
      weights[c] = static_cast<float>(static_cast<double>(weights[c]) / total);
  }

  std::vector<tensor> out;
  out.reserve(ref.size());
  for (const tensor& t : ref) out.emplace_back(t.shape());

  switch (rule) {
    case aggregation_rule::fedavg: {
      for (std::size_t c = 0; c < n; ++c) {
        const float w = weights[c];
        for (std::size_t i = 0; i < out.size(); ++i) out[i].add_scaled_(states[c][i], w);
      }
      break;
    }
    case aggregation_rule::coordinate_median: {
      std::vector<float> column(n);
      for (std::size_t i = 0; i < out.size(); ++i)
        for (std::int64_t j = 0; j < out[i].numel(); ++j) {
          for (std::size_t c = 0; c < n; ++c) column[c] = states[c][i][j];
          const std::size_t mid = n / 2;
          std::nth_element(column.begin(), column.begin() + static_cast<std::ptrdiff_t>(mid),
                           column.end());
          float median = column[mid];
          if (n % 2 == 0) {
            // lower middle = max of the first half after partition
            const float lower =
                *std::max_element(column.begin(), column.begin() + static_cast<std::ptrdiff_t>(mid));
            median = 0.5f * (median + lower);
          }
          out[i][j] = median;
        }
      break;
    }
    case aggregation_rule::trimmed_mean: {
      std::size_t k =
          static_cast<std::size_t>(std::floor(static_cast<double>(n) * k_trim_fraction));
      if (k == 0 && n >= 3) k = 1;  // the fraction rounds to zero at small n
      PELTA_CHECK_MSG(2 * k < n, "trimming discards every update (n=" << n << ", k=" << k << ")");
      std::vector<float> column(n);
      const double inv = 1.0 / static_cast<double>(n - 2 * k);
      for (std::size_t i = 0; i < out.size(); ++i)
        for (std::int64_t j = 0; j < out[i].numel(); ++j) {
          for (std::size_t c = 0; c < n; ++c) column[c] = states[c][i][j];
          std::sort(column.begin(), column.end());
          // Double-widened accumulator (R1): the sorted column can pair
          // large cancelling extremes around small survivors, and a float
          // running sum sheds the survivors' low-order bits entirely.
          double acc = 0.0;
          for (std::size_t c = k; c < n - k; ++c) acc += column[c];
          out[i][j] = static_cast<float>(acc * inv);
        }
      break;
    }
    case aggregation_rule::norm_clipped_mean: {
      std::vector<double> norms(n);
      for (std::size_t c = 0; c < n; ++c) norms[c] = delta_norm(states[c], ref);
      // Cap at the median delta norm.
      std::vector<double> sorted = norms;
      std::nth_element(sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(n / 2),
                       sorted.end());
      double cap = sorted[n / 2];
      if (cap <= 0.0) cap = 1.0;  // all updates identical to global: no-op clip
      // out = ref + weighted mean of clipped deltas
      for (std::size_t i = 0; i < out.size(); ++i) out[i] = ref[i];
      for (std::size_t c = 0; c < n; ++c) {
        const float w = weights[c];
        const float scale =
            norms[c] > cap ? static_cast<float>(cap / norms[c]) : 1.0f;
        // detail::fmadd (R1): a raw `out += ws * delta` leaves -ffp-contract
        // free to fuse this accumulation on FMA targets while other paths
        // stay mul+add, so the same aggregation could round differently per
        // build flag; the helper pins one rounding sequence everywhere.
        const float ws = w * scale;
        for (std::size_t i = 0; i < out.size(); ++i)
          for (std::int64_t j = 0; j < out[i].numel(); ++j)
            out[i][j] = ops::detail::fmadd(ws, states[c][i][j] - ref[i][j], out[i][j]);
      }
      break;
    }
  }
  return encode_state(out);
}

}  // namespace pelta::fl
