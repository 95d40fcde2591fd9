// Request/response types of the batched shielded-inference serving runtime.
//
// The deployment story of the paper is a fleet of clients issuing classify
// calls against a TEE-shielded model. A request is one [C,H,W] sample plus
// its arrival stamp on the *simulated* clock (like fl/async, so batching
// decisions and latency accounting are bit-reproducible and independent of
// wall-clock and thread count); a result carries the per-request view of
// the batch that served it: logits, prediction, the batch's shield/mask
// statistics, and a latency breakdown whose components sum to the
// end-to-end latency (enforced by tests/test_serve.cpp).
#pragma once

#include <cstdint>

#include "tensor/tensor.h"

namespace pelta::serve {

/// Dynamic-batching policy: a batch closes when it holds `max_batch`
/// requests, or `max_delay_ns` after it opened (whichever comes first);
/// at end of stream a partial batch drains immediately.
struct batch_policy {
  std::int64_t max_batch = 32;
  double max_delay_ns = 2e6;  ///< 2 ms coalescing window
};

/// One single-sample classify call from a client.
struct classify_request {
  /// Caller-assigned: the tie-break after submit_ns in the canonical
  /// dispatch order, and the `request_id` its result carries back. Must be
  /// unique within a drained set for full producer-interleaving
  /// independence — two requests that share BOTH submit_ns and id retain
  /// queue push order.
  std::int64_t id = 0;
  tensor image;             ///< [C,H,W]
  double submit_ns = 0.0;   ///< simulated arrival time
};

/// Where a request's end-to-end latency went. All values are simulated ns;
/// queue + batch + enclave + compute == finish - submit.
struct latency_breakdown {
  double queue_ns = 0.0;    ///< submit -> batch close (coalescing wait)
  double batch_ns = 0.0;    ///< batch close -> execution start (head-of-line wait)
  double enclave_ns = 0.0;  ///< modeled TEE cost of the batch's shield session
  double compute_ns = 0.0;  ///< modeled forward cost of the batch
  double total_ns() const { return queue_ns + batch_ns + enclave_ns + compute_ns; }
};

/// One served request.
struct classify_result {
  std::int64_t request_id = -1;
  std::int64_t predicted = -1;
  tensor logits;  ///< [classes] — bit-identical to a batch-1 forward of the sample

  // The batch that served this request.
  std::int64_t batch_index = -1;
  std::int64_t batch_size = 0;
  std::int64_t masked_transforms = 0;   ///< shielded-layer mask stats of that batch
  std::int64_t shield_bytes_batch = 0;  ///< enclave bytes its shield application placed

  double submit_ns = 0.0;
  double finish_ns = 0.0;
  latency_breakdown latency;
};

}  // namespace pelta::serve
