// TEE extensions: platform profiles, switchless HotCalls, and the §VI
// training-phase secure update channel.
#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "tee/hotcalls.h"
#include "tee/profiles.h"
#include "tee/update_channel.h"
#include "tensor/ops.h"

namespace pelta::tee {
namespace {

// ---- profiles ---------------------------------------------------------------

TEST(Profiles, MatchTheCitedLiterature) {
  const tee_profile tz = profile(tee_profile_kind::trustzone_optee);
  const tee_profile sgx = profile(tee_profile_kind::sgx_classic);
  const tee_profile hot = profile(tee_profile_kind::sgx_hotcalls);

  EXPECT_EQ(tz.capacity_bytes, 30ll * 1024 * 1024);  // the paper's constraint
  EXPECT_GT(sgx.capacity_bytes, tz.capacity_bytes);  // EPC > TrustZone secure RAM
  EXPECT_GT(sgx.costs.world_switch_ns, tz.costs.world_switch_ns);  // ecall > SMC
  EXPECT_LT(hot.costs.world_switch_ns, 0.1 * sgx.costs.world_switch_ns);  // switchless
  EXPECT_EQ(all_profiles().size(), 3u);
}

TEST(Profiles, MakeEnclaveEnforcesTheProfileCapacity) {
  enclave e = make_enclave(tee_profile_kind::trustzone_optee);
  EXPECT_EQ(e.capacity_bytes(), 30ll * 1024 * 1024);
  // 10M floats = 40 MB > 30 MB cap.
  EXPECT_THROW(e.store("too-big", tensor::zeros({10'000'000})), enclave_capacity_error);
}

// ---- hotcalls ---------------------------------------------------------------

TEST(HotCalls, StoresLandInTheEnclaveThroughTheWorker) {
  enclave e{1 << 20};
  rng g{3};
  const tensor v = tensor::rand_uniform(g, {4, 4});
  {
    hotcall_server server{e};
    server.store("k", v);
    server.store("j", tensor::ones({2}));
  }
  EXPECT_EQ(e.current_world(), world::normal);  // returned on shutdown
  const secure_session read{e};
  EXPECT_EQ(e.entry_count(), 2);
  const tensor& back = e.load("k");
  for (std::int64_t i = 0; i < v.numel(); ++i) EXPECT_EQ(back[i], v[i]);
}

TEST(HotCalls, LifetimeCostsTwoSwitchesRegardlessOfCallCount) {
  enclave e{1 << 22};
  e.reset_statistics();
  {
    hotcall_server server{e};
    for (std::int64_t i = 0; i < 50; ++i) {
      // Append, not `"k" + to_string(...)`: that prepend path trips GCC 12's
      // -Wrestrict false positive at -O3 (see models/resnet.cpp), which the
      // -Werror CI legs would promote.
      std::string key = "k";
      key += std::to_string(i % 4);
      server.store(key, tensor::full({8}, static_cast<float>(i)));
    }
  }
  // enter + exit only; the 50 stores crossed via the polled slot.
  EXPECT_EQ(e.statistics().world_switches, 2);
  EXPECT_EQ(e.statistics().stores, 50);
}

TEST(HotCalls, BeatsPerCallWorldSwitchingOnModeledLatency) {
  const tee_profile p = profile(tee_profile_kind::sgx_classic);
  const std::int64_t n = 100;
  const tensor v = tensor::zeros({16});

  enclave classic{1 << 22, p.costs};
  classic.reset_statistics();
  for (std::int64_t i = 0; i < n; ++i) classic.store("k", v);  // 2 switches each

  enclave hot{1 << 22, profile(tee_profile_kind::sgx_hotcalls).costs};
  hot.reset_statistics();
  {
    hotcall_server server{hot};
    for (std::int64_t i = 0; i < n; ++i) server.store("k", v);
  }
  EXPECT_LT(hot.statistics().simulated_ns, 0.2 * classic.statistics().simulated_ns);
}

TEST(HotCalls, CapacityErrorsKeepTheirTypeAndTheServerKeepsServing) {
  enclave e{64};  // tiny enclave
  {
    hotcall_server server{e};
    EXPECT_THROW(server.store("big", tensor::zeros({1024})), enclave_capacity_error);
    server.store("x", tensor::ones({2}));  // the worker survives the error
    EXPECT_EQ(server.statistics().calls, 2);  // the failed call is charged too
  }
  const secure_session read{e};
  EXPECT_FALSE(e.contains("big"));
  ASSERT_TRUE(e.contains("x"));
  EXPECT_EQ(e.load("x")[1], 1.0f);
}

TEST(HotCalls, SustainsManySerializedCalls) {
  enclave e{1 << 22};
  {
    hotcall_server server{e};
    for (std::int64_t i = 0; i < 300; ++i)
      server.store("slot", tensor::full({4}, static_cast<float>(i)));
    const hotcall_stats s = server.statistics();
    EXPECT_EQ(s.calls, 300);
    EXPECT_GT(s.simulated_ns, 0.0);
  }
  EXPECT_EQ(e.statistics().stores, 300);
  const secure_session read{e};
  EXPECT_EQ(e.entry_count(), 1);
  EXPECT_EQ(e.load("slot")[3], 299.0f);  // the last store won
}

// ---- §VI secure update channel ---------------------------------------------------

TEST(UpdateChannel, AveragesExactlyOverThePullPeriod) {
  enclave e{1 << 20};
  secure_update_channel ch{e, 4};
  for (std::int64_t b = 0; b < 4; ++b) {
    ch.push_batch({tensor::full({3}, static_cast<float>(b + 1)),
                   tensor::full({2}, 2.0f * static_cast<float>(b))});
    EXPECT_EQ(ch.ready(), b == 3);
  }
  const std::vector<tensor> avg = ch.pull();
  ASSERT_EQ(avg.size(), 2u);
  EXPECT_FLOAT_EQ(avg[0][0], (1.0f + 2.0f + 3.0f + 4.0f) / 4.0f);
  EXPECT_FLOAT_EQ(avg[1][0], (0.0f + 2.0f + 4.0f + 6.0f) / 4.0f);
  EXPECT_EQ(ch.pending_batches(), 0);
  EXPECT_EQ(ch.pulls(), 1);
}

TEST(UpdateChannel, BoundaryBytesScaleInverselyWithPullPeriod) {
  const auto run = [](std::int64_t period) {
    enclave e{1 << 22};
    secure_update_channel ch{e, period};
    for (std::int64_t b = 0; b < 8; ++b) {
      ch.push_batch({tensor::ones({256})});
      if (ch.ready()) (void)ch.pull();
    }
    if (ch.pending_batches() > 0) (void)ch.pull();  // end-of-round flush
    return ch;
  };
  const secure_update_channel every = run(1);
  const secure_update_channel fourth = run(4);
  EXPECT_EQ(every.pulls(), 8);
  EXPECT_EQ(fourth.pulls(), 2);
  EXPECT_EQ(every.bytes_pulled(), 4 * fourth.bytes_pulled());
}

TEST(UpdateChannel, EnclaveIsCleanAfterPull) {
  enclave e{1 << 20};
  secure_update_channel ch{e, 2};
  ch.push_batch({tensor::ones({8})});
  ch.push_batch({tensor::ones({8})});
  EXPECT_GT(e.used_bytes(), 0);
  (void)ch.pull();
  EXPECT_EQ(e.used_bytes(), 0);
  EXPECT_EQ(e.entry_count(), 0);
}

TEST(UpdateChannel, ContractViolationsThrow) {
  enclave e{1 << 20};
  EXPECT_THROW((secure_update_channel{e, 0}), error);

  secure_update_channel ch{e, 2};
  EXPECT_THROW((void)ch.pull(), error);  // nothing accumulated
  ch.push_batch({tensor::ones({4})});
  EXPECT_THROW(ch.push_batch({tensor::ones({4}), tensor::ones({4})}), error);  // count change
  EXPECT_THROW(ch.push_batch({tensor::ones({5})}), error);                     // shape change
}

TEST(UpdateChannel, CapacityErrorsSurfaceOnPush) {
  enclave e{64};  // 16 floats — too small for the accumulators below
  secure_update_channel ch{e, 2};
  EXPECT_THROW(ch.push_batch({tensor::ones({1024})}), enclave_capacity_error);
}

TEST(HotCalls, TwoClientThreadsSerializeSafely) {
  enclave e{1 << 22};
  hotcall_server server{e};
  auto hammer = [&](std::int64_t base) {
    for (std::int64_t i = 0; i < 100; ++i) {
      // Append, not `"k" + to_string(...)` — GCC 12 -Wrestrict, as above.
      std::string key = "k";
      key += std::to_string(base + i);
      server.store(key, tensor::full({4}, static_cast<float>(i)));
    }
  };
  std::thread a{hammer, 0}, b{hammer, 1000};
  a.join();
  b.join();
  EXPECT_EQ(e.entry_count(), 200);
  EXPECT_EQ(server.statistics().calls, 200);
}

// Regression for a lock-discipline defect the thread-safety annotation
// sweep surfaced: statistics() read calls_/simulated_ns_ WITHOUT
// client_mutex_ while call() wrote them under it, so a monitor polling a
// live server raced the client thread (a TSan-visible data race, and a
// potentially torn double on 32-bit targets). statistics() now locks.
// This test is the racing workload: a client thread drives store() while
// the main thread polls — the TSan concurrency leg turns any relapse into
// a hard failure, and the monotonicity assertions catch torn reads.
TEST(HotCalls, StatisticsAreSafeToPollWhileAClientCalls) {
  enclave e{1 << 22};
  hotcall_server server{e};
  constexpr std::int64_t k_stores = 200;
  const tensor v = tensor::zeros({8});
  std::thread client{[&] {
    for (std::int64_t i = 0; i < k_stores; ++i) {
      // Append, not `"k" + to_string(...)` — GCC 12 -Wrestrict, as above.
      std::string key = "k";
      key += std::to_string(i % 7);
      server.store(key, v);
    }
  }};
  hotcall_stats seen;
  while (seen.calls < k_stores) {
    const hotcall_stats now = server.statistics();
    ASSERT_GE(now.calls, seen.calls) << "calls counter went backwards";
    ASSERT_GE(now.simulated_ns, seen.simulated_ns) << "cost meter went backwards";
    seen = now;
  }
  client.join();
  const hotcall_stats final_stats = server.statistics();
  EXPECT_EQ(final_stats.calls, k_stores);
  EXPECT_GT(final_stats.simulated_ns, 0.0);
}

TEST(UpdateChannel, LargePullPeriodMatchesADoubleReference) {
  // Regression: the accumulator used to sum in plain float, so a large
  // pull_period drifted — adding a small gradient into a large running sum
  // sheds its low-order bits entirely (1e6 + 0.003 == 1e6 in float). The
  // Kahan-compensated slot carries those bits; the averaged pull must pin
  // to a double-precision reference.
  enclave e{1 << 20};
  const std::int64_t period = 256;
  secure_update_channel ch{e, period};

  // One huge gradient then 255 tiny ones, each below half an ulp of the
  // running sum (ulp(2^20) = 0.125): a plain float accumulator drops every
  // single one of them.
  double reference = 0.0;
  for (std::int64_t b = 0; b < period; ++b) {
    const float g = b == 0 ? 1048576.0f : 0.03f;
    reference += static_cast<double>(g);
    ch.push_batch({tensor::full({4}, g)});
  }
  ASSERT_TRUE(ch.ready());
  const std::vector<tensor> avg = ch.pull();
  reference /= static_cast<double>(period);

  // Naive float accumulation would land ~3e-2 off the reference (all 255
  // small gradients lost); the compensated sum stays within ~1 accumulator
  // ulp, i.e. ~5e-4 after averaging.
  for (std::int64_t j = 0; j < 4; ++j)
    EXPECT_NEAR(static_cast<double>(avg[0][j]), reference, 5e-3);
}

TEST(UpdateChannel, EarlyFlushAveragesThePartialWindow) {
  enclave e{1 << 20};
  secure_update_channel ch{e, 8};
  ch.push_batch({tensor::full({2}, 1.0f)});
  ch.push_batch({tensor::full({2}, 3.0f)});
  const std::vector<tensor> avg = ch.pull();  // flush after 2 of 8
  EXPECT_FLOAT_EQ(avg[0][0], 2.0f);
}

}  // namespace
}  // namespace pelta::tee
