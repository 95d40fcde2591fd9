// The shared simulated-clock event queue (core/simclock.h): total order,
// push/pop interleaving, the inclusive drain-on-shutdown rule, and golden
// regressions pinning fl::plan_async_schedule and serve::plan_batches to
// the exact plans their pre-simclock event loops produced (a hand-rolled
// priority queue and a stable sort, reimplemented here as references).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <queue>
#include <utility>
#include <vector>

#include "core/simclock.h"
#include "fl/async.h"
#include "serve/batcher.h"
#include "tensor/check.h"

namespace pelta {
namespace {

constexpr double k_inf = std::numeric_limits<double>::infinity();

// ---- total order -----------------------------------------------------------

TEST(SimClock, EqualStampsPopInIdOrder) {
  core::event_queue q;
  q.push(5.0, 3);
  q.push(5.0, 1);
  q.push(5.0, 2);
  EXPECT_EQ(q.pop().id, 1);
  EXPECT_EQ(q.pop().id, 2);
  EXPECT_EQ(q.pop().id, 3);
  EXPECT_TRUE(q.empty());
}

TEST(SimClock, EqualStampAndIdPopInPushOrder) {
  core::event_queue q;
  q.push(5.0, 7);
  q.push(5.0, 7);
  q.push(5.0, 7);
  EXPECT_EQ(q.pop().seq, 0u);
  EXPECT_EQ(q.pop().seq, 1u);
  EXPECT_EQ(q.pop().seq, 2u);
}

TEST(SimClock, StampDominatesIdDominatesSeq) {
  const core::sim_event early{1.0, 9, 5};
  const core::sim_event late{2.0, 0, 0};
  EXPECT_TRUE(core::sim_event_before(early, late));
  EXPECT_FALSE(core::sim_event_before(late, early));
  const core::sim_event low_id{2.0, 0, 9};
  EXPECT_TRUE(core::sim_event_before(low_id, core::sim_event{2.0, 1, 0}));
  EXPECT_FALSE(core::sim_event_before(low_id, low_id));  // strict order
}

// Interleave pushes and pops; every pop must return the minimum of the live
// contents under sim_event_before, even when later pushes land earlier than
// everything still queued.
TEST(SimClock, PopPushInterleavingStaysTotallyOrdered) {
  core::event_queue q;
  std::vector<core::sim_event> mirror;  // the events currently in the queue
  const auto push = [&](double stamp, std::int64_t id) {
    const std::uint64_t seq = q.pushes();
    ASSERT_TRUE(q.push(stamp, id));
    mirror.push_back(core::sim_event{stamp, id, seq});
  };
  const auto pop_and_check = [&] {
    const auto min_it = std::min_element(mirror.begin(), mirror.end(), core::sim_event_before);
    const core::sim_event got = q.pop();
    EXPECT_EQ(got.stamp_ns, min_it->stamp_ns);
    EXPECT_EQ(got.id, min_it->id);
    EXPECT_EQ(got.seq, min_it->seq);
    mirror.erase(min_it);
  };

  push(10.0, 1);
  push(4.0, 2);
  push(10.0, 0);
  pop_and_check();  // 4.0
  push(1.0, 5);     // earlier than everything still queued
  pop_and_check();  // 1.0
  push(10.0, 0);    // duplicate (stamp, id): seq breaks the tie
  push(7.5, 3);
  while (!mirror.empty()) pop_and_check();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(SimClock, RejectsNonFiniteStamps) {
  core::event_queue q;
  EXPECT_THROW(q.push(std::numeric_limits<double>::quiet_NaN(), 0), error);
}

// ---- the drain-on-shutdown rule --------------------------------------------

TEST(SimClock, ShutdownBoundaryIsInclusive) {
  core::event_queue q{10.0};
  EXPECT_TRUE(q.closed());
  EXPECT_EQ(q.shutdown_ns(), 10.0);
  EXPECT_TRUE(q.push(10.0, 1));  // stamped exactly AT shutdown: still lands
  EXPECT_FALSE(q.push(std::nextafter(10.0, 11.0), 2));
  EXPECT_EQ(q.rejected(), 1);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pop().id, 1);
}

TEST(SimClock, EverySeqIsConsumedEvenByRejectedPushes) {
  core::event_queue q{10.0};
  EXPECT_TRUE(q.push(1.0, 0));    // seq 0
  EXPECT_FALSE(q.push(20.0, 1));  // seq 1, rejected
  EXPECT_TRUE(q.push(2.0, 2));    // seq 2
  EXPECT_EQ(q.pushes(), 3u);
  EXPECT_EQ(q.pop().seq, 0u);
  EXPECT_EQ(q.pop().seq, 2u);  // seq still indexes the caller's side tables
}

TEST(SimClock, CloseAtDropsQueuedEventsBeyondTheBoundary) {
  core::event_queue q;
  q.push(1.0, 0);
  q.push(5.0, 1);
  q.push(5.0, 2);
  q.push(9.0, 3);
  q.close_at(5.0);
  EXPECT_EQ(q.rejected(), 1);  // only the 9.0 event; 5.0 is AT the boundary
  EXPECT_EQ(q.size(), 3u);
  EXPECT_FALSE(q.push(6.0, 4));
  EXPECT_EQ(q.rejected(), 2);
  std::vector<std::int64_t> order;
  while (!q.empty()) order.push_back(q.pop().id);
  EXPECT_EQ(order, (std::vector<std::int64_t>{0, 1, 2}));
}

TEST(SimClock, CloseAtMayOnlyTighten) {
  core::event_queue q{5.0};
  q.close_at(3.0);  // tightening is fine
  EXPECT_EQ(q.shutdown_ns(), 3.0);
  EXPECT_THROW(q.close_at(4.0), error);
}

// ---- golden regression: plan_async_schedule --------------------------------

// The pre-simclock async planner, verbatim: a std::priority_queue of
// (finish stamp, job index) popped min-first. Any divergence between this
// and fl::plan_async_schedule is a behaviour change in the port.
fl::async_schedule reference_async_plan(const fl::async_config& config,
                                        const std::vector<fl::client_profile>& profiles,
                                        const std::vector<std::int64_t>& shard_sizes,
                                        std::int64_t epochs, std::int64_t payload_bytes,
                                        const fl::network& net,
                                        std::int64_t target_aggregations, std::uint64_t seed) {
  const std::size_t clients = profiles.size();
  const rng base{seed};
  fl::async_schedule plan;

  using finish_event = std::pair<double, std::size_t>;  // (finish_ns, job index)
  std::priority_queue<finish_event, std::vector<finish_event>, std::greater<finish_event>>
      events;

  std::int64_t version = 0;
  std::vector<std::size_t> buffer;

  const auto start_job = [&](std::size_t c, double now_ns) {
    fl::async_job job;
    job.client = static_cast<std::int64_t>(c);
    job.start_version = version;
    job.start_ns = now_ns;
    job.finish_ns = now_ns + fl::async_episode_ns(profiles[c], shard_sizes[c], epochs,
                                                  payload_bytes, net);
    plan.legs.push_back({job.client, false, now_ns});
    const std::size_t index = plan.jobs.size();
    plan.jobs.push_back(job);
    events.push({job.finish_ns, index});
  };

  for (std::size_t c = 0; c < clients; ++c) start_job(c, 0.0);

  while (plan.aggregations < target_aggregations && !events.empty()) {
    const auto [now_ns, index] = events.top();
    events.pop();
    fl::async_job& job = plan.jobs[index];
    rng fate = base.fork(0xd20ull + static_cast<std::uint64_t>(index));
    if (profiles[static_cast<std::size_t>(job.client)].dropout_rate > 0.0 &&
        fate.bernoulli(profiles[static_cast<std::size_t>(job.client)].dropout_rate)) {
      job.dropped = true;
      ++plan.dropped;
    } else {
      plan.legs.push_back({job.client, true, now_ns});
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
          plan.flush_ns.push_back(now_ns);
          ++plan.aggregations;
          ++version;
          plan.end_ns = now_ns;
          if (plan.aggregations == target_aggregations) break;
        }
      }
    }
    start_job(static_cast<std::size_t>(job.client), now_ns);
  }
  return plan;
}

void expect_same_schedule(const fl::async_schedule& a, const fl::async_schedule& b) {
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    EXPECT_EQ(a.jobs[j].client, b.jobs[j].client) << "job " << j;
    EXPECT_EQ(a.jobs[j].start_version, b.jobs[j].start_version) << "job " << j;
    EXPECT_EQ(a.jobs[j].aggregation, b.jobs[j].aggregation) << "job " << j;
    EXPECT_EQ(a.jobs[j].staleness, b.jobs[j].staleness) << "job " << j;
    EXPECT_EQ(a.jobs[j].dropped, b.jobs[j].dropped) << "job " << j;
    EXPECT_EQ(a.jobs[j].stale, b.jobs[j].stale) << "job " << j;
    EXPECT_EQ(a.jobs[j].start_ns, b.jobs[j].start_ns) << "job " << j;
    EXPECT_EQ(a.jobs[j].finish_ns, b.jobs[j].finish_ns) << "job " << j;
  }
  EXPECT_EQ(a.flush_inputs, b.flush_inputs);
  EXPECT_EQ(a.flush_ns, b.flush_ns);
  ASSERT_EQ(a.legs.size(), b.legs.size());
  for (std::size_t l = 0; l < a.legs.size(); ++l) {
    EXPECT_EQ(a.legs[l].client, b.legs[l].client) << "leg " << l;
    EXPECT_EQ(a.legs[l].upload, b.legs[l].upload) << "leg " << l;
    EXPECT_EQ(a.legs[l].ns, b.legs[l].ns) << "leg " << l;
  }
  EXPECT_EQ(a.aggregations, b.aggregations);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.stale, b.stale);
  EXPECT_EQ(a.end_ns, b.end_ns);
}

TEST(SimClockGolden, AsyncPlanMatchesThePreSimclockPlannerOnAStragglerFleet) {
  fl::async_config cfg;
  cfg.buffer_size = 3;
  cfg.max_staleness = 4;
  // A spread of device speeds with three 6x stragglers, set directly.
  std::vector<fl::client_profile> profiles(12);
  for (std::size_t c = 0; c < profiles.size(); ++c) {
    profiles[c].compute_scale = 0.5 + 0.3 * static_cast<double>(c % 7);
    if (c % 4 == 1) profiles[c].compute_scale *= 6.0;
    profiles[c].dropout_rate = 0.15;
  }
  std::vector<std::int64_t> shard_sizes;
  for (std::int64_t c = 0; c < 12; ++c) shard_sizes.push_back(20 + 5 * (c % 4));
  const fl::network net;

  const fl::async_schedule expected =
      reference_async_plan(cfg, profiles, shard_sizes, 2, 4096, net, 10, 7);
  const fl::async_schedule got =
      fl::plan_async_schedule(cfg, profiles, shard_sizes, 2, 4096, net, 10, 7);
  expect_same_schedule(expected, got);
  EXPECT_EQ(got.aggregations, 10);
  EXPECT_GT(got.dropped, 0);  // the fleet actually exercises the dropout path
}

// ---- golden regression: plan_batches ---------------------------------------

// The pre-simclock batcher, verbatim: stable-sort the arrivals by
// (submit_ns, id, index), then the same greedy window scan.
serve::batch_plan reference_batch_plan(const std::vector<double>& submit_ns,
                                       const std::vector<std::int64_t>& ids,
                                       const serve::batch_policy& policy) {
  const std::size_t n = submit_ns.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (submit_ns[a] != submit_ns[b]) return submit_ns[a] < submit_ns[b];
    if (!ids.empty() && ids[a] != ids[b]) return ids[a] < ids[b];
    return false;
  });

  serve::batch_plan plan;
  plan.requests = static_cast<std::int64_t>(n);
  std::size_t i = 0;
  while (i < n) {
    serve::planned_batch batch;
    batch.open_ns = submit_ns[order[i]];
    batch.members.push_back(order[i]);
    const double deadline = batch.open_ns + policy.max_delay_ns;
    double last_arrival_ns = batch.open_ns;
    std::size_t j = i + 1;
    while (j < n && static_cast<std::int64_t>(batch.members.size()) < policy.max_batch &&
           submit_ns[order[j]] <= deadline) {
      batch.members.push_back(order[j]);
      last_arrival_ns = submit_ns[order[j]];
      ++j;
    }
    batch.closed_by_fill = static_cast<std::int64_t>(batch.members.size()) == policy.max_batch;
    batch.closed_by_drain = !batch.closed_by_fill && j == n;
    batch.close_ns =
        (batch.closed_by_fill || batch.closed_by_drain) ? last_arrival_ns : deadline;
    plan.batches.push_back(std::move(batch));
    i = j;
  }
  return plan;
}

void expect_same_batch_plan(const serve::batch_plan& a, const serve::batch_plan& b) {
  ASSERT_EQ(a.batches.size(), b.batches.size());
  for (std::size_t i = 0; i < a.batches.size(); ++i) {
    EXPECT_EQ(a.batches[i].members, b.batches[i].members) << "batch " << i;
    EXPECT_EQ(a.batches[i].open_ns, b.batches[i].open_ns) << "batch " << i;
    EXPECT_EQ(a.batches[i].close_ns, b.batches[i].close_ns) << "batch " << i;
    EXPECT_EQ(a.batches[i].closed_by_fill, b.batches[i].closed_by_fill) << "batch " << i;
    EXPECT_EQ(a.batches[i].closed_by_drain, b.batches[i].closed_by_drain) << "batch " << i;
  }
  EXPECT_EQ(a.requests, b.requests);
}

TEST(SimClockGolden, BatchPlanMatchesThePreSimclockPlannerOnAPoissonTrace) {
  const std::vector<double> arrivals = serve::make_poisson_arrivals(200, 5e5, 11);
  std::vector<std::int64_t> ids;
  for (std::size_t i = 0; i < arrivals.size(); ++i)
    ids.push_back(static_cast<std::int64_t>((i * 37) % 211));  // distinct, shuffled
  serve::batch_policy policy;
  policy.max_batch = 8;
  policy.max_delay_ns = 1.5e6;
  expect_same_batch_plan(reference_batch_plan(arrivals, ids, policy),
                         serve::plan_batches(arrivals, ids, policy));
}

TEST(SimClockGolden, EqualStampArrivalsBatchInIdOrder) {
  const std::vector<double> arrivals{5.0, 5.0, 5.0, 5.0, 9.0};
  const std::vector<std::int64_t> ids{40, 10, 30, 20, 1};
  serve::batch_policy policy;
  policy.max_batch = 3;
  policy.max_delay_ns = 10.0;
  const serve::batch_plan plan = serve::plan_batches(arrivals, ids, policy);
  expect_same_batch_plan(reference_batch_plan(arrivals, ids, policy), plan);
  ASSERT_EQ(plan.batches.size(), 2u);
  // ids 10 < 20 < 30 fill the first batch; 40 opens the second.
  EXPECT_EQ(plan.batches[0].members, (std::vector<std::size_t>{1, 3, 2}));
  EXPECT_EQ(plan.batches[1].members, (std::vector<std::size_t>{0, 4}));
}

// ---- the unified drain rule, end to end ------------------------------------

TEST(SimClockDrain, BatchShutdownAtTheLastArrivalStillFlushes) {
  const std::vector<double> arrivals = serve::make_poisson_arrivals(64, 8e5, 3);
  std::vector<std::int64_t> ids;
  for (std::size_t i = 0; i < arrivals.size(); ++i) ids.push_back(static_cast<std::int64_t>(i));
  serve::batch_policy policy;
  policy.max_batch = 5;
  policy.max_delay_ns = 1e6;
  const double last = *std::max_element(arrivals.begin(), arrivals.end());

  const serve::batch_plan open_plan = serve::plan_batches(arrivals, ids, policy);
  const serve::batch_plan at_last = serve::plan_batches(arrivals, ids, policy, last);
  expect_same_batch_plan(open_plan, at_last);  // inclusive: nothing is lost
  EXPECT_EQ(at_last.rejected, 0);

  // Just below the last arrival: exactly the requests stamped at `last` are
  // rejected, everything else still batches, and no member index ever
  // refers to a rejected request.
  const serve::batch_plan below =
      serve::plan_batches(arrivals, ids, policy, std::nextafter(last, 0.0));
  std::int64_t at_last_count = 0;
  for (double a : arrivals)
    if (a == last) ++at_last_count;
  EXPECT_EQ(below.rejected, at_last_count);
  std::int64_t members = 0;
  for (const serve::planned_batch& b : below.batches) {
    members += static_cast<std::int64_t>(b.members.size());
    for (std::size_t m : b.members) EXPECT_LT(arrivals[m], last);
  }
  EXPECT_EQ(members + below.rejected, static_cast<std::int64_t>(arrivals.size()));
}

}  // namespace
}  // namespace pelta
