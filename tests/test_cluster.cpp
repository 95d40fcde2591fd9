// Multi-replica serving cluster (src/serve/cluster.h).
//
// The suite pins the cluster contracts:
//   * the router is a pure plan-time round-robin — it is fair, a
//     one-replica cluster batches EXACTLY like plan_batches (the
//     unification evidence for the shared simclock), and a golden schedule
//     with a kill and a restart is pinned batch by batch;
//   * chaos is drain-and-requeue — killing a replica mid-stream loses no
//     request and duplicates none, at plan level and through execution;
//   * execution is bit-deterministic — pooled (PELTA_THREADS=8) and
//     forced-serial runs produce byte-identical reports, and every logits
//     row matches the single-server path bit for bit;
//   * a replica failure surfaces cleanly — the first failing slot's error
//     rethrows after every replica joined, and the cluster serves the next
//     run exactly like a fresh one.
// The static initializer pins PELTA_THREADS=8 (without overriding an
// explicit environment setting) so replica tasks really cross threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "models/vit.h"
#include "serve/cluster.h"
#include "serve/server.h"
#include "tensor/parallel.h"

namespace pelta {
namespace {

const bool k_threads_pinned = [] {
  setenv("PELTA_THREADS", "8", /*overwrite=*/0);
  return true;
}();

models::vit_config tiny_vit_config(std::uint64_t seed = 31) {
  models::vit_config c;
  c.name = "cluster-test-vit";
  c.image_size = 16;
  c.patch_size = 4;
  c.dim = 16;
  c.heads = 2;
  c.blocks = 1;
  c.mlp_hidden = 32;
  c.classes = 4;
  c.seed = seed;
  return c;
}

// Ids offset from the workload index so an unwritten (default -1) or
// zero-initialized result row can never masquerade as a served request.
std::vector<serve::classify_request> make_requests(std::int64_t n,
                                                   const std::vector<double>& submit_ns,
                                                   std::uint64_t seed = 7) {
  rng gen{seed};
  std::vector<serve::classify_request> reqs;
  reqs.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    serve::classify_request r;
    r.id = 100 + i;
    r.image = tensor::rand_uniform(gen, {3, 16, 16});
    r.submit_ns = submit_ns[static_cast<std::size_t>(i)];
    reqs.push_back(std::move(r));
  }
  return reqs;
}

bool bits_equal(const tensor& a, const tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(), a.data().size() * sizeof(float)) == 0;
}

// Every request index appears in EXACTLY one surviving batch; aborted
// batches only ever hold requests that survive elsewhere.
void expect_exactly_once_coverage(const serve::cluster_plan& plan, std::size_t n) {
  std::vector<int> served(n, 0);
  for (const serve::planned_cluster_batch& pb : plan.batches) {
    if (pb.aborted) continue;
    for (std::size_t m : pb.batch.members) {
      ASSERT_LT(m, n);
      ++served[m];
    }
  }
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(served[i], 1) << "workload index " << i << " served " << served[i] << " times";
  for (std::size_t i = 0; i < n; ++i) EXPECT_GE(plan.final_replica[i], 0);
}

// Byte-level equality of two cluster reports — doubles compare with == on
// purpose: pooled and forced-serial execution must agree EXACTLY.
void expect_cluster_reports_identical(const serve::cluster_report& got,
                                      const serve::cluster_report& want) {
  EXPECT_EQ(got.requests, want.requests);
  EXPECT_EQ(got.first_submit_ns, want.first_submit_ns);
  EXPECT_EQ(got.last_finish_ns, want.last_finish_ns);
  EXPECT_EQ(got.enclave_ns, want.enclave_ns);
  EXPECT_EQ(got.hotcalls, want.hotcalls);
  ASSERT_EQ(got.results.size(), want.results.size());
  for (std::size_t i = 0; i < want.results.size(); ++i) {
    const serve::classify_result& g = got.results[i];
    const serve::classify_result& w = want.results[i];
    EXPECT_EQ(g.request_id, w.request_id) << "request " << i;
    EXPECT_EQ(g.predicted, w.predicted) << "request " << i;
    ASSERT_TRUE(bits_equal(g.logits, w.logits)) << "request " << i;
    EXPECT_EQ(g.batch_index, w.batch_index) << "request " << i;
    EXPECT_EQ(g.batch_size, w.batch_size) << "request " << i;
    EXPECT_EQ(g.finish_ns, w.finish_ns) << "request " << i;
    EXPECT_EQ(g.latency.queue_ns, w.latency.queue_ns) << "request " << i;
    EXPECT_EQ(g.latency.batch_ns, w.latency.batch_ns) << "request " << i;
    EXPECT_EQ(g.latency.enclave_ns, w.latency.enclave_ns) << "request " << i;
    EXPECT_EQ(g.latency.compute_ns, w.latency.compute_ns) << "request " << i;
  }
  ASSERT_EQ(got.replicas.size(), want.replicas.size());
  for (std::size_t s = 0; s < want.replicas.size(); ++s) {
    const serve::replica_report& g = got.replicas[s];
    const serve::replica_report& w = want.replicas[s];
    EXPECT_EQ(g.requests, w.requests) << "slot " << s;
    EXPECT_EQ(g.enclave_ns, w.enclave_ns) << "slot " << s;
    EXPECT_EQ(g.hotcalls, w.hotcalls) << "slot " << s;
    EXPECT_EQ(g.last_finish_ns, w.last_finish_ns) << "slot " << s;
    ASSERT_EQ(g.batches.size(), w.batches.size()) << "slot " << s;
    for (std::size_t b = 0; b < w.batches.size(); ++b) {
      EXPECT_EQ(g.batches[b].request_ids, w.batches[b].request_ids);
      EXPECT_EQ(g.batches[b].close_ns, w.batches[b].close_ns);
      EXPECT_EQ(g.batches[b].exec_start_ns, w.batches[b].exec_start_ns);
      EXPECT_EQ(g.batches[b].enclave_ns, w.batches[b].enclave_ns);
      EXPECT_EQ(g.batches[b].compute_ns, w.batches[b].compute_ns);
      EXPECT_EQ(g.batches[b].hotcalls, w.batches[b].hotcalls);
    }
  }
}

serve::cluster_config base_config(std::int64_t replicas) {
  serve::cluster_config c;
  c.replicas = replicas;
  c.server.policy = {4, 1e6};
  return c;
}

// ---- router (plan level) ---------------------------------------------------

TEST(ClusterPlan, RoundRobinIsFair) {
  std::vector<double> stamps;
  std::vector<std::int64_t> ids;
  for (std::int64_t i = 0; i < 31; ++i) {
    stamps.push_back(static_cast<double>(i) * 3e5);
    ids.push_back(i);
  }
  const serve::cluster_plan plan = serve::plan_cluster(base_config(3), stamps, ids);
  ASSERT_EQ(plan.routed_per_slot.size(), 3u);
  const auto [lo, hi] =
      std::minmax_element(plan.routed_per_slot.begin(), plan.routed_per_slot.end());
  EXPECT_LE(*hi - *lo, 1) << "round-robin counts diverged";
  EXPECT_EQ(plan.routed_per_slot[0] + plan.routed_per_slot[1] + plan.routed_per_slot[2], 31);
  EXPECT_EQ(plan.requeued, 0);
  expect_exactly_once_coverage(plan, stamps.size());
}

// A one-replica cluster IS the single-server batcher: same members, same
// open/close stamps, same close reasons as plan_batches on the same stream.
TEST(ClusterPlan, SingleReplicaBatchesExactlyLikePlanBatches) {
  const std::vector<double> stamps = serve::make_poisson_arrivals(150, 6e5, 23);
  std::vector<std::int64_t> ids;
  for (std::int64_t i = 0; i < 150; ++i) ids.push_back(i);
  const serve::cluster_config config = base_config(1);
  const serve::cluster_plan plan = serve::plan_cluster(config, stamps, ids);
  const serve::batch_plan flat = serve::plan_batches(stamps, ids, config.server.policy);
  ASSERT_EQ(plan.batches.size(), flat.batches.size());
  for (std::size_t b = 0; b < flat.batches.size(); ++b) {
    const serve::planned_batch& got = plan.batches[b].batch;
    const serve::planned_batch& want = flat.batches[b];
    EXPECT_FALSE(plan.batches[b].aborted);
    EXPECT_EQ(plan.batches[b].replica, 0);
    EXPECT_EQ(got.members, want.members) << "batch " << b;
    EXPECT_EQ(got.open_ns, want.open_ns) << "batch " << b;
    EXPECT_EQ(got.close_ns, want.close_ns) << "batch " << b;
    EXPECT_EQ(got.closed_by_fill, want.closed_by_fill) << "batch " << b;
    EXPECT_EQ(got.closed_by_drain, want.closed_by_drain) << "batch " << b;
  }
}

// ---- chaos (plan level) ----------------------------------------------------

TEST(ClusterPlan, KillOneReplicaLosesAndDuplicatesNothing) {
  // Dense enough that every replica has work in flight when the kill lands.
  const std::vector<double> stamps = serve::make_poisson_arrivals(160, 2e5, 13);
  std::vector<std::int64_t> ids;
  for (std::int64_t i = 0; i < 160; ++i) ids.push_back(i);
  serve::cluster_config config = base_config(3);
  const double mid = stamps[80];
  config.chaos.push_back({mid, 1, /*kill=*/true});
  config.chaos.push_back({mid + 2e7, 1, /*kill=*/false});  // later restart

  const serve::cluster_plan plan = serve::plan_cluster(config, stamps, ids);
  EXPECT_GT(plan.requeued, 0) << "the kill should catch requests in flight";
  bool any_aborted = false;
  for (const serve::planned_cluster_batch& pb : plan.batches) any_aborted |= pb.aborted;
  EXPECT_TRUE(any_aborted);
  expect_exactly_once_coverage(plan, stamps.size());
  // While slot 1 is down, nothing opens on it.
  for (const serve::planned_cluster_batch& pb : plan.batches) {
    if (pb.replica != 1 || pb.aborted) continue;
    EXPECT_TRUE(pb.batch.open_ns <= mid || pb.batch.open_ns >= mid + 2e7)
        << "batch opened on a dead replica at " << pb.batch.open_ns;
  }
}

TEST(ClusterPlan, KillingEveryReplicaWithoutRestartIsRejected) {
  const std::vector<double> stamps{0.0, 1e5, 5e8};
  const std::vector<std::int64_t> ids{0, 1, 2};
  serve::cluster_config config = base_config(2);
  config.chaos.push_back({2e8, 0, true});
  config.chaos.push_back({2e8, 1, true});
  EXPECT_THROW(serve::plan_cluster(config, stamps, ids), error);
}

TEST(ClusterPlan, HeldRequestsFlushAtTheRestart) {
  const std::vector<double> stamps{0.0, 1e5, 5e8};  // the last arrives into a dead fleet
  const std::vector<std::int64_t> ids{0, 1, 2};
  serve::cluster_config config = base_config(2);
  config.chaos.push_back({2e8, 0, true});
  config.chaos.push_back({2e8, 1, true});
  config.chaos.push_back({6e8, 0, false});
  const serve::cluster_plan plan = serve::plan_cluster(config, stamps, ids);
  expect_exactly_once_coverage(plan, stamps.size());
  EXPECT_EQ(plan.final_replica[2], 0);
  // The held request routes when the restart lands, not at its own stamp.
  const serve::route_decision& d = plan.decisions.back();
  EXPECT_EQ(d.request, 2u);
  EXPECT_EQ(d.at_ns, 6e8);
}

// ---- golden schedule (plan level) ------------------------------------------

// A whole round-robin schedule with a kill that aborts a dispatched batch
// and an open one, then a restart that rejoins mid-stream, pinned batch by
// batch: replica, abort flag, close reason, open/close stamps (hex floats,
// exact) and members in admission order. Any change to routing, event
// priority or batching that moves one stamp or one member fails here.
TEST(ClusterPlan, GoldenRoundRobinScheduleWithKillAndRestart) {
  enum class close { fill, drain, deadline };
  struct golden_batch {
    std::int64_t replica;
    bool aborted;
    close reason;
    double open_ns;
    double close_ns;
    std::vector<std::size_t> members;
  };
  const std::vector<golden_batch> golden{
      {0, false, close::deadline, 0x1.c577c291a7ae5p+15, 0x1.024fbe148d3d7p+20, {0, 4}},
      {1, false, close::deadline, 0x1.a9415c7ed199dp+17, 0x1.294c2b8fda334p+20, {1, 5}},
      {2, false, close::deadline, 0x1.7bc13640b6aaap+18, 0x1.53144d902daaap+20, {2, 6}},
      {3, false, close::deadline, 0x1.6eb6dcccf1c5ap+19, 0x1.ab7f6e6678e2dp+20, {3, 7}},
      {0, false, close::deadline, 0x1.7aabe0385dd34p+20, 0x1.3767f01c2ee9ap+21, {8}},
      {1, false, close::deadline, 0x1.0a9cd198e3bc7p+21, 0x1.84aed198e3bc7p+21, {9, 13}},
      {2, true, close::deadline, 0x1.2bfecd82e9164p+21, 0x1.a610cd82e9164p+21, {10, 14}},
      {3, false, close::deadline, 0x1.33f8799022cd4p+21, 0x1.ae0a799022cd4p+21, {11, 15}},
      {0, false, close::deadline, 0x1.44f0c815fe219p+21, 0x1.bf02c815fe219p+21, {12, 16}},
      {1, false, close::deadline, 0x1.8cb03572ba502p+21, 0x1.03611ab95d281p+22, {17}},
      {2, true, close::deadline, 0x1.c1c530f94acdp+21, 0x0p+0, {18}},
      {3, false, close::deadline, 0x1.d7a7b411754c8p+21, 0x1.28dcda08baa64p+22, {19, 14}},
      {0, false, close::fill, 0x1.1cb5bf8b2d979p+22, 0x1.4db3c6831bbd1p+22, {20, 18, 23, 26}},
      {1, false, close::deadline, 0x1.1cb5bf8b2d979p+22, 0x1.59bebf8b2d979p+22, {10, 21, 24}},
      {3, false, close::deadline, 0x1.2a979dbdcc4c6p+22, 0x1.67a09dbdcc4c6p+22, {22, 25}},
      {1, false, close::deadline, 0x1.6e600f4e7d2dap+22, 0x1.ab690f4e7d2dap+22, {27, 30}},
      {3, false, close::deadline, 0x1.76c9ff8b1cbbp+22, 0x1.b3d2ff8b1cbbp+22, {28, 31}},
      {0, false, close::deadline, 0x1.7d7ddcefc753ap+22, 0x1.ba86dcefc753ap+22, {29, 32}},
      {1, false, close::deadline, 0x1.b6c170830a32ap+22, 0x1.f3ca70830a32ap+22, {33, 37}},
      {2, false, close::deadline, 0x1.b7aee9c191aaap+22, 0x1.f4b7e9c191aaap+22, {34, 38}},
      {3, false, close::deadline, 0x1.c59251dd10f69p+22, 0x1.014da8ee887b4p+23, {35}},
      {0, false, close::drain, 0x1.dbfe55dd09da3p+22, 0x1.dbfe55dd09da3p+22, {36}},
      {3, false, close::drain, 0x1.01a9a5c04020ap+23, 0x1.01a9a5c04020ap+23, {39}},
  };

  const std::vector<double> stamps = serve::make_poisson_arrivals(40, 2e5, 71);
  std::vector<std::int64_t> ids;
  for (std::int64_t i = 0; i < 40; ++i) ids.push_back(i);
  serve::cluster_config config = base_config(4);
  const double kill = stamps[20];
  ASSERT_EQ(kill, 0x1.1cb5bf8b2d979p+22);
  config.chaos.push_back({kill, 2, /*kill=*/true});
  config.chaos.push_back({kill + 2e6, 2, /*kill=*/false});

  const serve::cluster_plan plan = serve::plan_cluster(config, stamps, ids);
  EXPECT_EQ(plan.requeued, 3);
  EXPECT_EQ(plan.routed_per_slot, (std::vector<std::int64_t>{12, 12, 7, 12}));
  ASSERT_EQ(plan.batches.size(), golden.size());
  for (std::size_t b = 0; b < golden.size(); ++b) {
    const serve::planned_cluster_batch& got = plan.batches[b];
    const golden_batch& want = golden[b];
    const close reason = got.batch.closed_by_fill    ? close::fill
                         : got.batch.closed_by_drain ? close::drain
                                                     : close::deadline;
    EXPECT_EQ(got.replica, want.replica) << "batch " << b;
    EXPECT_EQ(got.aborted, want.aborted) << "batch " << b;
    EXPECT_TRUE(reason == want.reason) << "batch " << b;
    EXPECT_EQ(got.batch.open_ns, want.open_ns) << "batch " << b;
    EXPECT_EQ(got.batch.close_ns, want.close_ns) << "batch " << b;
    EXPECT_EQ(got.batch.members, want.members) << "batch " << b;
  }
  expect_exactly_once_coverage(plan, stamps.size());
}

// ---- execution -------------------------------------------------------------

class ClusterTest : public ::testing::Test {
protected:
  ClusterTest() : model_{tiny_vit_config()} {}

  models::vit_model model_;
};

TEST_F(ClusterTest, PooledAndSerialRunsAreByteIdentical) {
  const std::vector<double> stamps = serve::make_poisson_arrivals(48, 5e5, 19);
  const std::vector<serve::classify_request> reqs = make_requests(48, stamps);
  serve::cluster_config config = base_config(3);
  config.chaos.push_back({stamps[24], 2, true});
  config.chaos.push_back({stamps[24] + 1.5e7, 2, false});

  serve::model_backend backend{model_};
  serve::cluster fleet{backend, config};
  ASSERT_GE(parallel_thread_count(), 2) << "pooled run would not cross threads";
  const serve::cluster_report pooled = fleet.run(reqs);
  serve::cluster_report serial;
  {
    serial_guard guard;  // every replica task runs inline on this thread
    serial = fleet.run(reqs);
  }
  expect_cluster_reports_identical(pooled, serial);
}

TEST_F(ClusterTest, EveryLogitsRowMatchesTheSingleServerBitwise) {
  const std::vector<double> stamps = serve::make_poisson_arrivals(40, 6e5, 29);
  const std::vector<serve::classify_request> reqs = make_requests(40, stamps);
  serve::cluster_config config = base_config(3);

  serve::model_backend backend{model_};
  serve::cluster fleet{backend, config};
  const serve::cluster_report fleet_report = fleet.run(reqs);

  serve::model_backend single_backend{model_};
  tee::enclave enclave;
  serve::server single{single_backend, enclave, config.server};
  const serve::serving_report single_report = single.run(reqs);

  ASSERT_EQ(fleet_report.results.size(), single_report.results.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const serve::classify_result& f = fleet_report.results[i];
    const serve::classify_result& s = single_report.results[i];
    EXPECT_EQ(f.request_id, s.request_id);
    EXPECT_EQ(f.predicted, s.predicted) << "request " << i;
    ASSERT_TRUE(bits_equal(f.logits, s.logits))
        << "cluster logits diverged from the single server for request " << i;
  }
}

TEST_F(ClusterTest, ChaosRunServesEveryRequestExactlyOnce) {
  const std::vector<double> stamps = serve::make_poisson_arrivals(60, 4e5, 37);
  const std::vector<serve::classify_request> reqs = make_requests(60, stamps);
  serve::cluster_config config = base_config(3);
  config.chaos.push_back({stamps[30], 0, true});
  config.chaos.push_back({stamps[30] + 2e7, 0, false});

  serve::model_backend backend{model_};
  serve::cluster fleet{backend, config};
  const serve::cluster_report report = fleet.run(reqs);
  EXPECT_GT(report.plan.requeued, 0);

  // Result rows: every request answered under its own id, none defaulted.
  ASSERT_EQ(report.results.size(), reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i)
    EXPECT_EQ(report.results[i].request_id, reqs[i].id) << "row " << i;

  // Executed batches: each id exactly once across all replicas.
  std::map<std::int64_t, int> seen;
  for (const serve::replica_report& rep : report.replicas)
    for (const serve::batch_record& b : rep.batches)
      for (std::int64_t id : b.request_ids) ++seen[id];
  ASSERT_EQ(seen.size(), reqs.size());
  for (const serve::classify_request& r : reqs)
    EXPECT_EQ(seen[r.id], 1) << "request id " << r.id;

  // Replica totals commit in slot order and add up.
  std::int64_t total = 0;
  for (const serve::replica_report& rep : report.replicas) total += rep.requests;
  EXPECT_EQ(total, static_cast<std::int64_t>(reqs.size()));
}

// One price for every modeled batch (core/cost_model.h): with a non-default
// cost, the single server's batch records and every replica's executed
// records charge cost.batch_ns(size), and the planner stamps each modeled
// finish with cost.finish_ns(start, size).
TEST_F(ClusterTest, EveryModeledBatchIsPricedByTheSharedCostModel) {
  const std::vector<double> stamps = serve::make_poisson_arrivals(40, 3e5, 53);
  const std::vector<serve::classify_request> reqs = make_requests(40, stamps);
  serve::cluster_config config = base_config(3);
  config.server.cost.batch_setup_ns = 1.3e6;
  config.server.cost.compute_ns_per_sample = 3.7e5;
  config.chaos.push_back({stamps[20], 1, true});
  config.chaos.push_back({stamps[20] + 1e7, 1, false});
  const core::cost_model& cost = config.server.cost;
  const auto price = [&cost](std::size_t size) {
    return cost.batch_ns(static_cast<std::int64_t>(size));
  };

  serve::model_backend single_backend{model_};
  tee::enclave enclave;
  serve::server single{single_backend, enclave, config.server};
  const serve::serving_report single_report = single.run(reqs);
  ASSERT_FALSE(single_report.batches.empty());
  for (const serve::batch_record& b : single_report.batches)
    EXPECT_EQ(b.compute_ns, price(b.request_ids.size()));

  serve::model_backend backend{model_};
  serve::cluster fleet{backend, config};
  const serve::cluster_report report = fleet.run(reqs);
  ASSERT_GT(report.plan.requeued, 0);
  std::size_t executed = 0;
  for (const serve::replica_report& rep : report.replicas) {
    for (const serve::batch_record& b : rep.batches)
      EXPECT_EQ(b.compute_ns, price(b.request_ids.size()));
    executed += rep.batches.size();
  }
  EXPECT_GT(executed, 0u);
  for (const serve::planned_cluster_batch& pb : report.plan.batches) {
    if (pb.aborted) continue;
    EXPECT_EQ(pb.planned_finish_ns,
              cost.finish_ns(pb.planned_exec_start_ns,
                             static_cast<std::int64_t>(pb.batch.members.size())));
  }
}

// Throws from inside a replica whenever its batch holds a poisoned request
// id. Keyed by id rather than by a shared call count, so which batch fails
// does not depend on how replica tasks interleave.
class poisoned_backend final : public serve::shielded_backend {
public:
  poisoned_backend(serve::shielded_backend& inner, std::set<std::int64_t> poisoned)
      : inner_{&inner}, poisoned_{std::move(poisoned)} {}

  std::int64_t num_classes() const override { return inner_->num_classes(); }
  tensor run_batch(const tensor& images, const std::vector<std::int64_t>& ids,
                   tee::secure_store& sink, batch_stats* stats) override {
    for (const std::int64_t id : ids)
      if (poisoned_.count(id) != 0) throw error{"poisoned request " + std::to_string(id)};
    return inner_->run_batch(images, ids, sink, stats);
  }

private:
  serve::shielded_backend* inner_;
  std::set<std::int64_t> poisoned_;
};

TEST_F(ClusterTest, ReplicaFailureRethrowsAndLeavesTheClusterServiceable) {
  const std::int64_t n = 36;
  const std::vector<double> stamps = serve::make_poisson_arrivals(n, 5e5, 43);
  const std::vector<serve::classify_request> reqs = make_requests(n, stamps);
  const serve::cluster_config config = base_config(3);

  // Poison one request on slot 1 and one on slot 2: both replicas fail,
  // and the lower slot's error is the one rethrown.
  std::vector<double> submit_ns;
  std::vector<std::int64_t> ids;
  for (const serve::classify_request& r : reqs) {
    submit_ns.push_back(r.submit_ns);
    ids.push_back(r.id);
  }
  const serve::cluster_plan plan = serve::plan_cluster(config, submit_ns, ids);
  std::int64_t on_slot1 = -1;
  std::int64_t on_slot2 = -1;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (plan.final_replica[i] == 1 && on_slot1 == -1) on_slot1 = reqs[i].id;
    if (plan.final_replica[i] == 2 && on_slot2 == -1) on_slot2 = reqs[i].id;
  }
  ASSERT_NE(on_slot1, -1);
  ASSERT_NE(on_slot2, -1);

  serve::model_backend inner{model_};
  poisoned_backend backend{inner, {on_slot1, on_slot2}};
  serve::cluster fleet{backend, config};
  try {
    fleet.run(reqs);
    FAIL() << "a poisoned batch did not surface";
  } catch (const error& e) {
    EXPECT_NE(std::string{e.what()}.find("poisoned request " + std::to_string(on_slot1)),
              std::string::npos)
        << e.what();
  }

  // The same cluster serves a clean workload exactly like a fresh one.
  std::vector<serve::classify_request> clean;
  for (const serve::classify_request& r : reqs)
    if (r.id != on_slot1 && r.id != on_slot2) clean.push_back(r);
  const serve::cluster_report after_failure = fleet.run(clean);
  serve::cluster fresh{backend, config};
  expect_cluster_reports_identical(after_failure, fresh.run(clean));
}

}  // namespace
}  // namespace pelta
