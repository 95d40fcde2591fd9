// Batched shielded-inference serving runtime (src/serve).
//
// The suite pins the three contracts the runtime promises:
//   * the dynamic batcher is a pure policy — max_batch/max_delay boundary
//     behaviour, FIFO fairness and drain-on-shutdown are enumerable;
//   * batching never changes results — every logits row is bit-identical
//     to a batch-1 forward (the serial per-request deployment), pooled and
//     forced-serial schedules agree bitwise at PELTA_THREADS=8, and every
//     per-request latency breakdown sums to its end-to-end latency;
//   * TEE costs are charged per batch, not per request — the hotcall
//     session's modeled cost sits far below the ecall-style per-request
//     loop's;
//   * the wall-clock pipelined executor is invisible in the results — the
//     serving_report is byte-identical to the strictly sequential chain at
//     every pipeline depth and thread width, the enclave stage never
//     interleaves its session brackets (including when a mid-pipeline
//     batch throws), and a failed run leaves the server serviceable.
// The static initializer pins PELTA_THREADS=8 (without overriding an
// explicit environment setting) so pooled runs really cross threads even on
// single-core hosts.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "models/vit.h"
#include "serve/server.h"
#include "shield/shield.h"
#include "tensor/ops.h"
#include "tensor/parallel.h"

namespace pelta {
namespace {

const bool k_threads_pinned = [] {
  setenv("PELTA_THREADS", "8", /*overwrite=*/0);
  return true;
}();

models::vit_config tiny_vit_config(std::uint64_t seed = 31) {
  models::vit_config c;
  c.name = "serve-test-vit";
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

std::vector<serve::classify_request> make_requests(std::int64_t n,
                                                   const std::vector<double>& submit_ns,
                                                   std::uint64_t seed = 7) {
  rng gen{seed};
  std::vector<serve::classify_request> reqs;
  reqs.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    serve::classify_request r;
    r.id = i;
    r.image = tensor::rand_uniform(gen, {3, 16, 16});
    r.submit_ns = submit_ns[static_cast<std::size_t>(i)];
    reqs.push_back(std::move(r));
  }
  return reqs;
}

bool bits_equal(const tensor& a, const tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(float)) == 0;
}

// Byte-level equality of two serving reports: every per-request field
// (logits bits, latency breakdown, batch attribution), every batch record
// and every session-level total. Doubles compare with == on purpose — the
// pipelined executor must reproduce the sequential chain EXACTLY.
void expect_reports_identical(const serve::serving_report& got,
                              const serve::serving_report& want) {
  EXPECT_EQ(got.requests, want.requests);
  EXPECT_EQ(got.first_submit_ns, want.first_submit_ns);
  EXPECT_EQ(got.last_finish_ns, want.last_finish_ns);
  EXPECT_EQ(got.enclave_ns, want.enclave_ns);
  EXPECT_EQ(got.hotcalls, want.hotcalls);
  ASSERT_EQ(got.results.size(), want.results.size());
  for (std::size_t i = 0; i < want.results.size(); ++i) {
    const serve::classify_result& g = got.results[i];
    const serve::classify_result& w = want.results[i];
    ASSERT_TRUE(bits_equal(g.logits, w.logits)) << "request " << i;
    EXPECT_EQ(g.request_id, w.request_id);
    EXPECT_EQ(g.predicted, w.predicted);
    EXPECT_EQ(g.batch_index, w.batch_index);
    EXPECT_EQ(g.batch_size, w.batch_size);
    EXPECT_EQ(g.masked_transforms, w.masked_transforms);
    EXPECT_EQ(g.shield_bytes_batch, w.shield_bytes_batch);
    EXPECT_EQ(g.submit_ns, w.submit_ns);
    EXPECT_EQ(g.finish_ns, w.finish_ns);
    EXPECT_EQ(g.latency.queue_ns, w.latency.queue_ns);
    EXPECT_EQ(g.latency.batch_ns, w.latency.batch_ns);
    EXPECT_EQ(g.latency.enclave_ns, w.latency.enclave_ns);
    EXPECT_EQ(g.latency.compute_ns, w.latency.compute_ns);
  }
  ASSERT_EQ(got.batches.size(), want.batches.size());
  for (std::size_t b = 0; b < want.batches.size(); ++b) {
    const serve::batch_record& g = got.batches[b];
    const serve::batch_record& w = want.batches[b];
    EXPECT_EQ(g.request_ids, w.request_ids) << "batch " << b;
    EXPECT_EQ(g.close_ns, w.close_ns);
    EXPECT_EQ(g.exec_start_ns, w.exec_start_ns);
    EXPECT_EQ(g.enclave_ns, w.enclave_ns);
    EXPECT_EQ(g.compute_ns, w.compute_ns);
    EXPECT_EQ(g.hotcalls, w.hotcalls);
  }
}

// ---- batcher policy ---------------------------------------------------------

TEST(Batcher, ClosesByFillAtExactlyMaxBatch) {
  serve::batch_policy policy{4, 1e9};
  const std::vector<double> arrivals{0, 1, 2, 3, 4, 5, 6, 7, 8};
  const serve::batch_plan plan = serve::plan_batches(arrivals, policy);
  ASSERT_EQ(plan.batches.size(), 3u);
  EXPECT_EQ(plan.batches[0].members, (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_TRUE(plan.batches[0].closed_by_fill);
  EXPECT_DOUBLE_EQ(plan.batches[0].close_ns, 3.0);  // the 4th arrival closes it
  EXPECT_TRUE(plan.batches[1].closed_by_fill);
  // Tail: 1 request, end of stream — drains at its own arrival.
  EXPECT_EQ(plan.batches[2].members, (std::vector<std::size_t>{8}));
  EXPECT_TRUE(plan.batches[2].closed_by_drain);
  EXPECT_DOUBLE_EQ(plan.batches[2].close_ns, 8.0);
}

TEST(Batcher, MaxDelayBoundaryIsInclusive) {
  serve::batch_policy policy{8, 100.0};
  // 100 is exactly open+delay (joins); 101 is past it (new batch).
  const std::vector<double> arrivals{0, 50, 100, 101, 400};
  const serve::batch_plan plan = serve::plan_batches(arrivals, policy);
  ASSERT_EQ(plan.batches.size(), 3u);
  EXPECT_EQ(plan.batches[0].members, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_FALSE(plan.batches[0].closed_by_fill);
  EXPECT_FALSE(plan.batches[0].closed_by_drain);
  EXPECT_DOUBLE_EQ(plan.batches[0].close_ns, 100.0);  // deadline: stream continues
  EXPECT_EQ(plan.batches[1].members, (std::vector<std::size_t>{3}));
  EXPECT_DOUBLE_EQ(plan.batches[1].close_ns, 201.0);  // 101 + 100, 400 proves continuation
  EXPECT_EQ(plan.batches[2].members, (std::vector<std::size_t>{4}));
  EXPECT_TRUE(plan.batches[2].closed_by_drain);
}

TEST(Batcher, DrainOnShutdownNeverWaitsOutTheDelay) {
  serve::batch_policy policy{32, 1e9};  // a huge window that must NOT be served out
  const std::vector<double> arrivals{10, 20, 30};
  const serve::batch_plan plan = serve::plan_batches(arrivals, policy);
  ASSERT_EQ(plan.batches.size(), 1u);
  EXPECT_TRUE(plan.batches[0].closed_by_drain);
  EXPECT_DOUBLE_EQ(plan.batches[0].close_ns, 30.0);  // last arrival, not 10 + 1e9
}

TEST(Batcher, FifoFairnessAndCoverageProperty) {
  // Random arrival processes: every request is served exactly once, in
  // arrival order (ties by index), under the policy's size/window bounds.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const std::int64_t n = 97;
    const std::vector<double> arrivals =
        serve::make_poisson_arrivals(n, /*mean_gap_ns=*/5e5, seed);
    serve::batch_policy policy{static_cast<std::int64_t>(1 + seed % 7), 1e6};
    const serve::batch_plan plan = serve::plan_batches(arrivals, policy);

    std::vector<std::size_t> served;
    for (const serve::planned_batch& b : plan.batches) {
      ASSERT_GE(b.members.size(), 1u);
      ASSERT_LE(static_cast<std::int64_t>(b.members.size()), policy.max_batch);
      ASSERT_LE(b.close_ns, b.open_ns + policy.max_delay_ns);
      for (std::size_t m : b.members) {
        ASSERT_LE(arrivals[m], b.close_ns);  // nobody joins after dispatch
        served.push_back(m);
      }
      if (!b.closed_by_fill && !b.closed_by_drain) {
        ASSERT_DOUBLE_EQ(b.close_ns, b.open_ns + policy.max_delay_ns);
      }
    }
    ASSERT_EQ(static_cast<std::int64_t>(served.size()), n);
    // FIFO: dispatch order == (arrival, index) order, no overtaking.
    for (std::size_t i = 1; i < served.size(); ++i) {
      const bool ordered = arrivals[served[i - 1]] < arrivals[served[i]] ||
                           (arrivals[served[i - 1]] == arrivals[served[i]] &&
                            served[i - 1] < served[i]);
      ASSERT_TRUE(ordered) << "request " << served[i] << " overtook " << served[i - 1];
    }
  }
}

TEST(Batcher, RejectsNonFiniteSubmitStamps) {
  const std::vector<double> nan_arrival{0.0, std::nan("")};
  EXPECT_THROW(serve::plan_batches(nan_arrival, serve::batch_policy{4, 1e6}), error);
  serve::request_queue q;
  serve::classify_request r;
  r.image = tensor::ones(shape_t{3, 16, 16});
  r.submit_ns = std::numeric_limits<double>::infinity();
  EXPECT_THROW(q.push(r), error);
}

TEST(Batcher, EqualStampsTieBreakByIdWhenIdsAreGiven) {
  // Producer interleaving delivered ids out of order, all with one stamp.
  const std::vector<double> arrivals{0, 0, 0, 0};
  const std::vector<std::int64_t> ids{3, 1, 2, 0};
  serve::batch_policy policy{2, 1e6};

  // Id-aware planning (server::run's path): batches form in id order —
  // the same order canonicalize() would have produced.
  const serve::batch_plan by_id = serve::plan_batches(arrivals, ids, policy);
  ASSERT_EQ(by_id.batches.size(), 2u);
  EXPECT_EQ(by_id.batches[0].members, (std::vector<std::size_t>{3, 1}));  // ids 0, 1
  EXPECT_EQ(by_id.batches[1].members, (std::vector<std::size_t>{2, 0}));  // ids 2, 3

  // Without ids the planner falls back to vector position.
  const serve::batch_plan by_index = serve::plan_batches(arrivals, policy);
  ASSERT_EQ(by_index.batches.size(), 2u);
  EXPECT_EQ(by_index.batches[0].members, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(by_index.batches[1].members, (std::vector<std::size_t>{2, 3}));
}

TEST(Batcher, SingleRequestPolicyDegeneratesToSerial) {
  const std::vector<double> arrivals{0, 1, 2};
  const serve::batch_plan plan = serve::plan_batches(arrivals, serve::batch_policy{1, 1e6});
  ASSERT_EQ(plan.batches.size(), 3u);
  for (const serve::planned_batch& b : plan.batches) EXPECT_EQ(b.members.size(), 1u);
}

// ---- serving fixture --------------------------------------------------------

class ServeTest : public ::testing::Test {
protected:
  ServeTest() : model_{tiny_vit_config()} {}

  serve::serving_report serve_workload(const std::vector<serve::classify_request>& reqs,
                                       serve::batch_policy policy = {32, 2e6}) {
    tee::enclave enclave;
    serve::model_backend backend{model_};
    serve::server_config cfg;
    cfg.policy = policy;
    serve::server srv{backend, enclave, cfg};
    return srv.run(reqs);
  }

  models::vit_model model_;
};

TEST_F(ServeTest, BatchedLogitsBitIdenticalToSerialPerRequestLoop) {
  const std::int64_t n = 37;  // 32 + ragged tail batch of 5
  const std::vector<serve::classify_request> reqs =
      make_requests(n, std::vector<double>(static_cast<std::size_t>(n), 0.0));
  const serve::serving_report report = serve_workload(reqs);
  ASSERT_EQ(report.results.size(), static_cast<std::size_t>(n));
  ASSERT_EQ(report.batches.size(), 2u);

  // The serial per-request deployment: one batch-1 forward + one
  // ecall-style shield per request.
  tee::enclave serial_enclave;
  for (std::int64_t i = 0; i < n; ++i) {
    shape_t batched{1, 3, 16, 16};
    models::forward_pass fp =
        model_.forward(reqs[static_cast<std::size_t>(i)].image.reshape(batched),
                       ad::norm_mode::eval);
    shield::pelta_shield_tags(fp.graph, model_.shield_frontier_tags(), &serial_enclave,
                              "serial/");
    const tensor& logits = fp.graph.value(fp.logits);
    const tensor row = logits.reshape(shape_t{logits.numel()});
    const serve::classify_result& res = report.results[static_cast<std::size_t>(i)];
    EXPECT_TRUE(bits_equal(res.logits, row)) << "logits diverged for request " << i;
    EXPECT_EQ(res.predicted, static_cast<std::int64_t>(ops::argmax(logits)));
    EXPECT_EQ(res.request_id, i);
  }
}

TEST_F(ServeTest, PooledAndForcedSerialSchedulesAgreeBitwise) {
  const std::int64_t n = 24;
  const std::vector<double> arrivals = serve::make_poisson_arrivals(n, 1e5, 3);
  const std::vector<serve::classify_request> reqs = make_requests(n, arrivals);

  const serve::serving_report pooled = serve_workload(reqs, {8, 5e5});
  serve::serving_report serial;
  {
    serial_guard guard;
    serial = serve_workload(reqs, {8, 5e5});
  }

  ASSERT_EQ(pooled.results.size(), serial.results.size());
  ASSERT_EQ(pooled.batches.size(), serial.batches.size());
  EXPECT_EQ(pooled.hotcalls, serial.hotcalls);
  EXPECT_EQ(pooled.enclave_ns, serial.enclave_ns);  // exact: same counts, same bytes
  for (std::size_t i = 0; i < pooled.results.size(); ++i) {
    const serve::classify_result& p = pooled.results[i];
    const serve::classify_result& s = serial.results[i];
    ASSERT_TRUE(bits_equal(p.logits, s.logits)) << "request " << i;
    EXPECT_EQ(p.predicted, s.predicted);
    EXPECT_EQ(p.batch_index, s.batch_index);
    EXPECT_EQ(p.latency.queue_ns, s.latency.queue_ns);
    EXPECT_EQ(p.latency.batch_ns, s.latency.batch_ns);
    EXPECT_EQ(p.latency.enclave_ns, s.latency.enclave_ns);
    EXPECT_EQ(p.latency.compute_ns, s.latency.compute_ns);
  }
}

TEST_F(ServeTest, LatencyBreakdownSumsToEndToEnd) {
  const std::int64_t n = 41;
  const std::vector<double> arrivals = serve::make_poisson_arrivals(n, 3e5, 9);
  const serve::serving_report report =
      serve_workload(make_requests(n, arrivals), {8, 1e6});
  ASSERT_EQ(report.results.size(), static_cast<std::size_t>(n));
  for (const serve::classify_result& r : report.results) {
    const double end_to_end = r.finish_ns - r.submit_ns;
    EXPECT_NEAR(r.latency.total_ns(), end_to_end, 1e-3)
        << "request " << r.request_id << " breakdown does not sum";
    EXPECT_GE(r.latency.queue_ns, 0.0);
    EXPECT_GE(r.latency.batch_ns, 0.0);
    EXPECT_GT(r.latency.enclave_ns, 0.0);  // every batch crosses the boundary
    EXPECT_GT(r.latency.compute_ns, 0.0);
  }
  // Batches execute as a single pipeline in dispatch order.
  for (std::size_t b = 1; b < report.batches.size(); ++b)
    EXPECT_GE(report.batches[b].exec_start_ns,
              report.batches[b - 1].exec_start_ns + report.batches[b - 1].enclave_ns +
                  report.batches[b - 1].compute_ns - 1e-6);
}

TEST_F(ServeTest, TeeCostsChargedPerBatchNotPerRequest) {
  const std::int64_t n = 32;
  const std::vector<serve::classify_request> reqs =
      make_requests(n, std::vector<double>(static_cast<std::size_t>(n), 0.0));

  tee::enclave enclave;
  serve::model_backend backend{model_};
  serve::server_config cfg;
  cfg.policy = {32, 2e6};
  cfg.cost.batch_setup_ns = 2e5;
  cfg.cost.compute_ns_per_sample = 1e6;
  serve::server srv{backend, enclave, cfg};
  const serve::serving_report batched = srv.run(reqs);
  ASSERT_EQ(batched.batches.size(), 1u);
  EXPECT_EQ(srv.session().accumulated().batches, 1);
  // Every masked tensor leaves through exactly one switchless hot call.
  EXPECT_EQ(batched.hotcalls, srv.session().accumulated().stores);
  EXPECT_GT(batched.hotcalls, 0);

  // The ecall-style per-request loop pays a world-switch pair per store.
  tee::enclave serial_enclave;
  for (const serve::classify_request& r : reqs) {
    shape_t batched_shape{1, 3, 16, 16};
    models::forward_pass fp =
        model_.forward(r.image.reshape(batched_shape), ad::norm_mode::eval);
    shield::pelta_shield_tags(fp.graph, model_.shield_frontier_tags(), &serial_enclave,
                              "serial/");
  }
  const double serial_ns = serial_enclave.statistics().simulated_ns;
  EXPECT_GT(serial_ns, 3.0 * batched.enclave_ns)
      << "batched session should amortize TEE costs by far more than 3x";
  EXPECT_EQ(serial_enclave.statistics().world_switches,
            2 * serial_enclave.statistics().stores);
}

TEST_F(ServeTest, QueueAcceptsManyProducersAndDrainsDeterministically) {
  const std::int64_t producers = 4, per_producer = 8;
  const std::int64_t n = producers * per_producer;
  const std::vector<double> arrivals = serve::make_poisson_arrivals(n, 1e5, 17);
  const std::vector<serve::classify_request> reqs = make_requests(n, arrivals);

  tee::enclave enclave;
  serve::model_backend backend{model_};
  serve::server_config cfg;
  cfg.policy = {8, 1e6};
  serve::server srv{backend, enclave, cfg};

  // Producers push interleaved; the drain canonicalizes by (submit, id).
  std::vector<std::thread> threads;
  for (std::int64_t p = 0; p < producers; ++p)
    threads.emplace_back([&, p] {
      for (std::int64_t i = 0; i < per_producer; ++i)
        srv.queue().push(reqs[static_cast<std::size_t>(i * producers + p)]);
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(srv.queue().pending(), n);
  const serve::serving_report live = srv.drain();
  EXPECT_EQ(srv.queue().pending(), 0);
  ASSERT_EQ(live.results.size(), static_cast<std::size_t>(n));

  // Same requests through the deterministic path, same canonical order.
  tee::enclave enclave2;
  serve::model_backend backend2{model_};
  serve::server srv2{backend2, enclave2, cfg};
  const serve::serving_report planned = srv2.run(serve::canonicalize(reqs));

  std::set<std::int64_t> seen;
  for (std::size_t i = 0; i < live.results.size(); ++i) {
    seen.insert(live.results[i].request_id);
    ASSERT_TRUE(bits_equal(live.results[i].logits, planned.results[i].logits));
    EXPECT_EQ(live.results[i].request_id, planned.results[i].request_id);
    EXPECT_EQ(live.results[i].batch_index, planned.results[i].batch_index);
  }
  EXPECT_EQ(static_cast<std::int64_t>(seen.size()), n);  // nothing lost, nothing duplicated

  srv.queue().close();
  EXPECT_FALSE(srv.queue().push(reqs.front()));  // graceful rejection, not an abort
  EXPECT_EQ(srv.queue().rejected(), 1);
}

TEST(RequestQueue, WaitDrainWakesOnPushAndOnClose) {
  serve::request_queue q;
  std::vector<std::size_t> sizes;
  std::thread consumer([&] {
    sizes.push_back(q.wait_drain().size());  // woken by the push
    sizes.push_back(q.wait_drain().size());  // woken by close(), empty
  });

  serve::classify_request r;
  r.id = 1;
  r.image = tensor::ones(shape_t{3, 16, 16});
  q.push(r);
  // Let the consumer reach its second (blocking) wait before closing, so
  // the wake-on-close path is genuinely exercised on most runs; the test
  // stays correct under any interleaving.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  q.close();
  consumer.join();

  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_EQ(sizes[0], 1u);
  EXPECT_EQ(sizes[1], 0u);
  EXPECT_TRUE(q.closed());
  EXPECT_EQ(q.total_pushed(), 1);
}

TEST_F(ServeTest, DrainWaitServesALatePushAndReturnsEmptyOnceClosed) {
  const std::vector<serve::classify_request> reqs = make_requests(1, {0.0});
  tee::enclave enclave;
  serve::model_backend backend{model_};
  serve::server srv{backend, enclave, {}};

  // The producer pushes only after drain_wait() has had time to block; the
  // call must wake on that push and serve it.
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_TRUE(srv.queue().push(reqs.front()));
  });
  const serve::serving_report live = srv.drain_wait();
  producer.join();
  ASSERT_EQ(live.requests, 1);
  ASSERT_EQ(live.results.size(), 1u);
  EXPECT_EQ(live.results.front().request_id, reqs.front().id);

  tee::enclave enclave2;
  serve::model_backend backend2{model_};
  serve::server srv2{backend2, enclave2, {}};
  expect_reports_identical(live, srv2.run(reqs));

  // Closed and empty: no block, nothing served.
  srv.queue().close();
  const serve::serving_report empty = srv.drain_wait();
  EXPECT_EQ(empty.requests, 0);
  EXPECT_TRUE(empty.results.empty());
  EXPECT_TRUE(empty.batches.empty());
}

// ---- pipelined executor -----------------------------------------------------

// A backend that fails on one chosen batch — the mid-pipeline throw case.
class flaky_backend final : public serve::shielded_backend {
public:
  flaky_backend(serve::shielded_backend& inner, std::int64_t fail_on_call)
      : inner_{&inner}, fail_on_call_{fail_on_call} {}

  std::int64_t num_classes() const override { return inner_->num_classes(); }
  tensor run_batch(const tensor& images, const std::vector<std::int64_t>& ids,
                   tee::secure_store& sink, batch_stats* stats) override {
    if (calls_++ == fail_on_call_) throw error{"injected backend failure"};
    return inner_->run_batch(images, ids, sink, stats);
  }
  std::int64_t calls() const { return calls_; }

private:
  serve::shielded_backend* inner_;
  std::int64_t fail_on_call_;
  std::int64_t calls_ = 0;
};

TEST_F(ServeTest, PipelinedReportBitIdenticalToSequentialExecutor) {
  const std::int64_t n = 53;  // several full batches + a ragged tail
  const std::vector<double> arrivals = serve::make_poisson_arrivals(n, 2e5, 21);
  const std::vector<serve::classify_request> reqs = make_requests(n, arrivals);
  serve::server_config cfg;
  cfg.policy = {8, 1e6};

  const auto run_with = [&](std::int64_t depth) {
    serve::server_config c = cfg;
    c.pipeline_depth = depth;
    tee::enclave enclave;
    serve::model_backend backend{model_};
    serve::server srv{backend, enclave, c};
    serve::serving_report report = srv.run(reqs);
    // Session totals are part of the contract too: the serialized enclave
    // stage must charge exactly the sequential chain's accounting.
    EXPECT_EQ(srv.session().accumulated().batches,
              static_cast<std::int64_t>(report.batches.size()));
    return report;
  };

  // The strictly sequential chain is the reference...
  const serve::serving_report sequential = run_with(1);
  // ...and the pipelined executor must reproduce it byte-for-byte at every
  // effective thread count (1 = all tasks inline at submission) and depth.
  for (const int width : {1, 2, 8}) {
    concurrency_guard guard{width};
    for (const std::int64_t depth : {0, 3, 8}) {
      const serve::serving_report pipelined = run_with(depth);
      expect_reports_identical(pipelined, sequential);
    }
  }
}

TEST_F(ServeTest, RunBatchesDuplicateStampsInCanonicalOrder) {
  // Four producers' pushes interleaved into one drained vector: ids out of
  // order, every submit stamp equal. Batching must follow the canonical
  // (submit_ns, id) order, not the producer interleaving.
  const std::int64_t n = 12;
  std::vector<serve::classify_request> reqs =
      make_requests(n, std::vector<double>(static_cast<std::size_t>(n), 5.0));
  std::vector<serve::classify_request> shuffled;
  for (std::int64_t p = 0; p < 4; ++p)  // column-major interleaving: 0,4,8,1,5,9,...
    for (std::int64_t i = p; i < n; i += 4)
      shuffled.push_back(reqs[static_cast<std::size_t>(i)]);

  const serve::serving_report interleaved = serve_workload(shuffled, {4, 1e6});
  const serve::serving_report canonical =
      serve_workload(serve::canonicalize(shuffled), {4, 1e6});

  // Match results by request id: same batch attribution, same bits.
  ASSERT_EQ(interleaved.batches.size(), canonical.batches.size());
  for (std::size_t b = 0; b < canonical.batches.size(); ++b)
    EXPECT_EQ(interleaved.batches[b].request_ids, canonical.batches[b].request_ids)
        << "batch " << b << " composition depends on producer interleaving";
  for (const serve::classify_result& got : interleaved.results) {
    const auto want = std::find_if(
        canonical.results.begin(), canonical.results.end(),
        [&](const serve::classify_result& r) { return r.request_id == got.request_id; });
    ASSERT_NE(want, canonical.results.end());
    EXPECT_EQ(got.batch_index, want->batch_index);
    EXPECT_EQ(got.finish_ns, want->finish_ns);
    ASSERT_TRUE(bits_equal(got.logits, want->logits));
  }
}

TEST_F(ServeTest, MidPipelineBackendThrowKeepsSessionAndQueueConsistent) {
  const std::int64_t n = 40;  // 5 batches of 8; the 3rd one throws
  const std::vector<serve::classify_request> reqs =
      make_requests(n, std::vector<double>(static_cast<std::size_t>(n), 0.0));
  serve::server_config cfg;
  cfg.policy = {8, 1e6};

  const auto run_flaky = [&](std::int64_t depth) {
    serve::server_config c = cfg;
    c.pipeline_depth = depth;
    tee::enclave enclave;
    serve::model_backend inner{model_};
    flaky_backend backend{inner, /*fail_on_call=*/2};
    serve::server srv{backend, enclave, c};
    EXPECT_THROW(srv.run(reqs), error);
    // The bracket closed on the failing batch: the session is not wedged
    // and its totals match the sequential chain's (2 clean + 1 aborted).
    const serve::enclave_session::totals after_throw = srv.session().accumulated();
    EXPECT_EQ(backend.calls(), 3);

    // The server stays serviceable: the queue still accepts and drains,
    // and the next run's results are bit-identical to a fresh server's.
    for (std::int64_t i = 0; i < 10; ++i)
      EXPECT_TRUE(srv.queue().push(reqs[static_cast<std::size_t>(i)]));
    const serve::serving_report drained = srv.drain();
    EXPECT_EQ(drained.requests, 10);
    EXPECT_EQ(srv.queue().pending(), 0);
    return std::pair{after_throw, drained};
  };

  const auto [seq_totals, seq_drained] = run_flaky(1);
  for (const std::int64_t depth : {3, 8}) {
    const auto [pipe_totals, pipe_drained] = run_flaky(depth);
    EXPECT_EQ(pipe_totals.batches, seq_totals.batches);
    EXPECT_EQ(pipe_totals.hotcalls, seq_totals.hotcalls);
    EXPECT_EQ(pipe_totals.stores, seq_totals.stores);
    EXPECT_EQ(pipe_totals.bytes_in, seq_totals.bytes_in);
    EXPECT_EQ(pipe_totals.enclave_ns, seq_totals.enclave_ns);
    expect_reports_identical(pipe_drained, seq_drained);
  }
}

// The enclave's capacity error crosses the hotcall slot and the batch
// executor with its type, so a caller can tell an undersized enclave from
// any other failure.
TEST_F(ServeTest, UndersizedEnclaveThrowsCapacityError) {
  const std::int64_t n = 4;
  const std::vector<serve::classify_request> reqs =
      make_requests(n, std::vector<double>(static_cast<std::size_t>(n), 0.0));
  tee::enclave enclave{64};  // far below one batch's masked tensors
  serve::model_backend backend{model_};
  serve::server srv{backend, enclave, serve::server_config{}};
  EXPECT_THROW(srv.run(reqs), tee::enclave_capacity_error);
}

TEST_F(ServeTest, OneBatchDrainsAgreeAcrossWidthAndDepth) {
  // The open-loop serving shape: one long-lived server whose every drain()
  // holds 1-3 requests, so each run is a single batch through the
  // executor's ring.
  const std::vector<std::int64_t> drain_sizes = {1, 3, 2, 1, 1, 2, 3, 1};
  std::vector<double> stamps;
  for (std::size_t d = 0; d < drain_sizes.size(); ++d)
    for (std::int64_t j = 0; j < drain_sizes[d]; ++j)
      stamps.push_back(static_cast<double>(d) * 5e6 + static_cast<double>(j) * 1e5);
  const std::vector<serve::classify_request> reqs =
      make_requests(static_cast<std::int64_t>(stamps.size()), stamps);

  const auto serve_drains = [&](int width, std::int64_t depth) {
    concurrency_guard guard{width};
    serve::server_config cfg;
    cfg.policy = {32, 2e6};
    cfg.pipeline_depth = depth;
    tee::enclave enclave;
    serve::model_backend backend{model_};
    serve::server srv{backend, enclave, cfg};
    std::vector<serve::serving_report> reports;
    std::size_t next = 0;
    for (const std::int64_t size : drain_sizes) {
      for (std::int64_t j = 0; j < size; ++j) EXPECT_TRUE(srv.queue().push(reqs[next++]));
      const std::int64_t batches_before = srv.session().accumulated().batches;
      reports.push_back(srv.drain());
      EXPECT_EQ(reports.back().requests, size);
      EXPECT_EQ(reports.back().batches.size(), 1u);
      EXPECT_EQ(srv.session().accumulated().batches, batches_before + 1);
    }
    return reports;
  };

  const std::vector<serve::serving_report> sequential = serve_drains(1, 1);
  for (const int width : {1, 2}) {
    for (const std::int64_t depth : {0, 1}) {
      const std::vector<serve::serving_report> got = serve_drains(width, depth);
      ASSERT_EQ(got.size(), sequential.size());
      for (std::size_t d = 0; d < got.size(); ++d) {
        SCOPED_TRACE("width " + std::to_string(width) + " depth " + std::to_string(depth) +
                     " drain " + std::to_string(d));
        expect_reports_identical(got[d], sequential[d]);
      }
    }
  }
}

TEST(RequestQueue, PushAfterCloseIsCountedRejection) {
  serve::request_queue q;
  serve::classify_request r;
  r.id = 9;
  r.image = tensor::ones(shape_t{3, 16, 16});
  EXPECT_TRUE(q.push(r));
  q.close();
  EXPECT_FALSE(q.push(r));
  EXPECT_FALSE(q.push(r));
  EXPECT_EQ(q.rejected(), 2);
  EXPECT_EQ(q.total_pushed(), 1);   // rejected pushes never count as accepted
  EXPECT_EQ(q.drain().size(), 1u);  // pending work survives the close
}

TEST(RequestQueue, ProducersRacingCloseGetRejectionsNotAborts) {
  // Every push lands either in the queue or in the rejected counter —
  // never an abort, never a lost request — no matter where close() cuts in.
  constexpr std::int64_t producers = 4, per_producer = 64;
  serve::request_queue q;
  const tensor image = tensor::ones(shape_t{3, 16, 16});
  std::atomic<std::int64_t> accepted{0};
  std::vector<std::thread> fleet;
  for (std::int64_t p = 0; p < producers; ++p)
    fleet.emplace_back([&, p] {
      for (std::int64_t i = 0; i < per_producer; ++i) {
        serve::classify_request r;
        r.id = p * per_producer + i;
        r.image = image;
        if (q.push(std::move(r))) accepted.fetch_add(1);
      }
    });
  std::this_thread::sleep_for(std::chrono::microseconds(200));
  q.close();
  for (std::thread& t : fleet) t.join();

  EXPECT_EQ(q.total_pushed(), accepted.load());
  EXPECT_EQ(q.rejected(), producers * per_producer - accepted.load());
  EXPECT_EQ(static_cast<std::int64_t>(q.drain().size()), accepted.load());
}

// ---- batched forward below the server ---------------------------------------

TEST(ServeBatchedEntries, PredictLogitsRowsMatchSingleSampleForwards) {
  models::vit_model model{tiny_vit_config()};
  rng gen{8};
  const tensor images = tensor::rand_uniform(gen, {7, 3, 16, 16});
  const tensor logits = models::predict_logits(model, images);
  ASSERT_EQ(logits.size(0), 7);
  ASSERT_EQ(logits.size(1), model.num_classes());
  for (std::int64_t i = 0; i < 7; ++i) {
    tensor image{shape_t{1, 3, 16, 16}};
    std::copy(images.data().begin() + i * 3 * 16 * 16,
              images.data().begin() + (i + 1) * 3 * 16 * 16, image.data().begin());
    models::forward_pass fp = model.forward(image, ad::norm_mode::eval);
    const tensor& one = fp.graph.value(fp.logits);
    for (std::int64_t c = 0; c < model.num_classes(); ++c)
      EXPECT_EQ(logits[i * model.num_classes() + c], one[c]) << "row " << i;
  }
}

// ---- report figures on a hand-worked clock ---------------------------------

// Classifies nothing and stores nothing: every enclave charge is exactly 0,
// so the simulated clock is the cost model alone.
class inert_backend final : public serve::shielded_backend {
public:
  std::int64_t num_classes() const override { return 2; }
  tensor run_batch(const tensor& images, const std::vector<std::int64_t>&, tee::secure_store&,
                   batch_stats*) override {
    return tensor::zeros({images.size(0), 2});
  }
};

// bench_serving and serving_demo gate on simulated_span_ns() and
// mean_batch_size(); pin both against a clock worked out by hand.
TEST(ServeReport, SpanAndMeanBatchSizeMatchAHandWorkedClock) {
  // max_batch 2, max_delay 50; a batch of b costs 100 + 10 b.
  //   {0, 1} fills at 20 and runs 20 -> 140
  //   {2} closes at its deadline 80, waits for the pipeline: 140 -> 250
  //   {3} drains at 200, waits: 250 -> 360
  // span = 360 - 10 = 350; mean batch size = 4 requests / 3 batches.
  inert_backend backend;
  tee::enclave enclave;
  serve::server_config cfg;
  cfg.policy = {2, 50.0};
  cfg.cost.batch_setup_ns = 100.0;
  cfg.cost.compute_ns_per_sample = 10.0;
  serve::server srv{backend, enclave, cfg};
  const serve::serving_report report = srv.run(make_requests(4, {10.0, 20.0, 30.0, 200.0}));
  ASSERT_EQ(report.batches.size(), 3u);
  EXPECT_EQ(report.enclave_ns, 0.0);
  EXPECT_EQ(report.last_finish_ns, 360.0);
  EXPECT_EQ(report.simulated_span_ns(), 350.0);
  EXPECT_EQ(report.mean_batch_size(), 4.0 / 3.0);

  const serve::serving_report empty = srv.run({});
  EXPECT_EQ(empty.mean_batch_size(), 0.0);  // no batch: 0, not 0/0
  EXPECT_EQ(empty.simulated_span_ns(), 0.0);
}

}  // namespace
}  // namespace pelta
