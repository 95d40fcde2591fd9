#include "fl/async.h"

#include "core/cost_model.h"
#include "core/simclock.h"
#include "tensor/check.h"
#include "tensor/rng.h"

namespace pelta::fl {

double async_episode_ns(const client_profile& profile, std::int64_t shard_size, std::int64_t epochs,
                        std::int64_t payload_bytes, const network& net) {
  const double compute = core::cost_model{}.train_ns(shard_size, epochs, profile.compute_scale);
  return net.transfer_ns(payload_bytes) + compute + net.transfer_ns(payload_bytes);
}

async_schedule plan_async_schedule(const async_config& config,
                                   const std::vector<client_profile>& profiles,
                                   const std::vector<std::int64_t>& shard_sizes,
                                   std::int64_t epochs, std::int64_t payload_bytes,
                                   const network& net, std::int64_t target_aggregations,
                                   std::uint64_t seed) {
  PELTA_CHECK_MSG(config.buffer_size >= 1, "async buffer_size must be >= 1");
  PELTA_CHECK_MSG(config.max_staleness >= 0, "max_staleness must be >= 0");
  PELTA_CHECK_MSG(!profiles.empty() && profiles.size() == shard_sizes.size(),
                  "async planning needs one profile per client shard");
  PELTA_CHECK_MSG(epochs >= 1 && payload_bytes > 0, "invalid epochs / payload size");
  PELTA_CHECK_MSG(target_aggregations >= 1, "need at least one target aggregation");

  const std::size_t clients = profiles.size();
  const rng base{seed};
  async_schedule plan;

  // The shared simulated-clock queue (core/simclock.h), open-ended: events
  // pop by (finish stamp, job index) — the job index, unique and assigned in
  // creation order, is the deterministic tie-break, so the pop order is
  // total.
  core::event_queue events;

  std::int64_t version = 0;
  std::vector<std::size_t> buffer;  // job indices, arrival order

  const auto start_job = [&](std::size_t c, double at_ns) {
    async_job job;
    job.client = static_cast<std::int64_t>(c);
    job.start_version = version;
    job.start_ns = at_ns;
    job.finish_ns =
        at_ns + async_episode_ns(profiles[c], shard_sizes[c], epochs, payload_bytes, net);
    plan.legs.push_back({job.client, /*upload=*/false, at_ns});  // broadcast leg
    const std::size_t index = plan.jobs.size();
    plan.jobs.push_back(job);
    events.push(job.finish_ns, static_cast<std::int64_t>(index));
  };

  for (std::size_t c = 0; c < clients; ++c) start_job(c, 0.0);

  // A fleet that never fills the buffer (e.g. every upload beyond
  // max_staleness) would loop forever; this bound is far above any
  // converging schedule.
  const std::size_t max_jobs =
      clients * static_cast<std::size_t>(target_aggregations * config.buffer_size + 64) * 4;

  while (plan.aggregations < target_aggregations && !events.empty()) {
    PELTA_CHECK_MSG(plan.jobs.size() < max_jobs,
                    "async schedule is not converging after "
                        << plan.jobs.size() << " episodes (staleness bound or dropout "
                        << "rate starves the buffer)");
    const core::sim_event upload = events.pop();
    const double at_ns = upload.stamp_ns;
    const std::size_t index = static_cast<std::size_t>(upload.id);
    async_job& job = plan.jobs[index];

    // Per-job forked stream: the draw depends only on (seed, job index),
    // never on the event interleaving.
    rng fate = base.fork(0xd20ull + static_cast<std::uint64_t>(index));
    if (profiles[static_cast<std::size_t>(job.client)].dropout_rate > 0.0 &&
        fate.bernoulli(profiles[static_cast<std::size_t>(job.client)].dropout_rate)) {
      job.dropped = true;
      ++plan.dropped;
    } else {
      plan.legs.push_back({job.client, /*upload=*/true, at_ns});
      job.staleness = version - job.start_version;
      if (job.staleness > config.max_staleness) {
        job.stale = true;
        ++plan.stale;
      } else {
        buffer.push_back(index);
        if (static_cast<std::int64_t>(buffer.size()) == config.buffer_size) {
          for (const std::size_t b : buffer) plan.jobs[b].aggregation = plan.aggregations;
          plan.flush_inputs.push_back(std::move(buffer));
          buffer.clear();
          plan.flush_ns.push_back(at_ns);
          ++plan.aggregations;
          ++version;
          plan.end_ns = at_ns;
          if (plan.aggregations == target_aggregations) break;
        }
      }
    }
    // The device immediately begins its next episode from the current
    // global version (post-flush if one just happened).
    start_job(static_cast<std::size_t>(job.client), at_ns);
  }
  return plan;
}

}  // namespace pelta::fl
