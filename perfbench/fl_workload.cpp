// fl_round: synchronous FedAvg rounds of ResNet-56-sim over 4 benign
// clients. Conv and batch-norm training forward and backward, parameter
// serialisation, FedAvg and network metering; it never touches shield or
// serve, so it is the bypass control for those layers.
//
// Untraced, each op is one federation::run_round. Traced, the round is
// replayed from the same public calls run_round makes (broadcast,
// round_participant_ids, receive_global, local_update under parallel_for,
// aggregate) with spans around each, and a twin federation runs the real
// run_round alongside: the two global models must stay byte-identical.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "autodiff/ops_loss.h"
#include "bench.h"
#include "data/dataset.h"
#include "fl/federation.h"
#include "models/zoo.h"
#include "probes.h"
#include "tensor/parallel.h"

namespace perfbench {

namespace {

using namespace pelta;

constexpr std::int64_t k_clients = 4;
// 12 images per class -> 30 per client -> 2 SGD steps (16 + 14) per round,
// small enough for hundreds of rounds in a run.
constexpr std::int64_t k_train_per_class = 12;
constexpr std::int64_t k_warmup_rounds = 2;

struct fl_fixture {
  std::unique_ptr<data::dataset> ds;
  fl::federation_config config;
  fl::model_factory factory;
  std::unique_ptr<fl::federation> fed;
  std::unique_ptr<fl::federation> twin;     // traced run: the run_round reference
  std::unique_ptr<models::model> profiled;  // traced run: one training step, profiled
  std::uint64_t warm_hash = 0;
};

std::uint64_t global_hash(fl::federation& fed) {
  const byte_buffer b = fed.server().broadcast();
  return fnv1a(b.data(), b.size());
}

/// One round replayed from public calls under spans. Returns the bytes the
/// round would meter (broadcast and upload legs of every participant).
std::int64_t replay_round(fl::federation& fed, const fl::federation_config& config,
                          std::vector<double>& client_ms) {
  const scoped_span round{"fl.round", -1};
  const std::int64_t r = fed.server().round();
  const byte_buffer global = [&] {
    const scoped_span s{"fl.broadcast"};
    return fed.server().broadcast();
  }();
  const std::vector<std::int64_t> ids = fed.round_participant_ids(r);
  fl::local_train_config local = config.local;
  local.seed = config.seed + static_cast<std::uint64_t>(r);

  std::vector<fl::model_update> updates(ids.size());
  std::vector<std::int64_t> client_ns(ids.size(), 0);
  {
    const scoped_span phase{"fl.train"};
    const std::int64_t phase_id = phase.id();
    parallel_for(static_cast<std::int64_t>(ids.size()), 1, [&](std::int64_t i) {
      const auto k = static_cast<std::size_t>(i);
      fl::fl_client& client = fed.client(ids[k]);
      const std::int64_t t0 = now_ns();
      const scoped_span s{"fl.client", phase_id};
      {
        const scoped_span rs{"fl.receive"};
        client.receive_global(global);
      }
      {
        const scoped_span us{"fl.local_update"};
        updates[k] = client.local_update(local);
      }
      client_ns[k] = now_ns() - t0;
    });
  }
  {
    const scoped_span s{"fl.aggregate"};
    fed.server().aggregate(updates, config.aggregation);
  }
  std::int64_t bytes = 0;
  for (std::size_t k = 0; k < ids.size(); ++k) {
    bytes += static_cast<std::int64_t>(global.size() + updates[k].parameters.size());
    client_ms.push_back(static_cast<double>(client_ns[k]) / 1e6);
  }
  return bytes;
}

/// One client training step on the profiling model, split into forward
/// (train mode, as local_update runs it) and loss + backward.
void profile_step(fl_fixture& f) {
  std::vector<std::int64_t> idx;
  for (std::int64_t i = 0; i < f.config.local.batch_size; ++i) idx.push_back(i);
  const data::batch b = f.ds->gather_train(idx);
  const scoped_span root{"fl.profile", -1};
  models::forward_pass fp = [&] {
    const scoped_span s{"models.forward"};
    return f.profiled->forward(b.images, ad::norm_mode::train);
  }();
  const scoped_span s{"autodiff.backward"};
  const ad::node_id labels = fp.graph.add_constant(b.labels, "labels");
  const ad::node_id loss =
      fp.graph.add_transform(ad::make_cross_entropy(), {fp.logits, labels}, "loss");
  fp.graph.backward(loss);
}

}  // namespace

workload_result run_fl_round(const run_options& o) {
  workload_result r;
  std::vector<std::uint64_t> warm_hashes;
  std::unique_ptr<fl_fixture> f = timed_setups(r, o, [&] {
    auto fx = std::make_unique<fl_fixture>();
    data::dataset_config dc = data::cifar10_like();
    dc.seed = derive_seed(o.seed, 21);
    dc.train_per_class = k_train_per_class;
    dc.test_per_class = 1;
    fx->ds = std::make_unique<data::dataset>(dc);
    const models::task_spec task = task_of(dc, derive_seed(o.seed, 22));
    fx->factory = [task] { return std::unique_ptr<models::model>{models::make_resnet56_sim(task)}; };
    fx->config.clients = k_clients;
    fx->config.compromised = 0;
    fx->config.seed = derive_seed(o.seed, 23);
    fx->fed = std::make_unique<fl::federation>(fx->config, fx->factory, *fx->ds);
    fx->fed->run_rounds(k_warmup_rounds);
    if (o.traced) {
      fx->twin = std::make_unique<fl::federation>(fx->config, fx->factory, *fx->ds);
      fx->twin->run_rounds(k_warmup_rounds);
      fx->profiled = fx->factory();
    }
    fx->warm_hash = global_hash(*fx->fed);
    warm_hashes.push_back(fx->warm_hash);
    return fx;
  });
  // Same seed, same global model after warm-up, on every set-up.
  if (std::adjacent_find(warm_hashes.begin(), warm_hashes.end(), std::not_equal_to<>{}) !=
      warm_hashes.end())
    r.check_failed("global model hash after warm-up differs between set-ups");

  std::int64_t samples_per_round = 0;
  for (const std::int64_t id : f->fed->round_participant_ids(f->fed->server().round()))
    samples_per_round += f->fed->client(id).shard_size() * f->config.local.epochs;

  span_log log;
  if (o.traced) set_active_log(&log);
  std::vector<double> client_ms;
  std::vector<double> spread_ms;
  std::vector<double> round_bytes;
  std::int64_t expect_bytes = -1;
  const std::int64_t window_end = now_ns() + static_cast<std::int64_t>(o.seconds * 1e9);
  do {
    ++r.attempted;
    const fl::network_stats net0 = f->fed->traffic();
    quiet_reading(o, r, 1);  // the pool's workers are parked between rounds
    const std::int64_t t0 = now_ns();
    std::int64_t bytes = 0;
    if (o.traced) {
      const std::size_t first = client_ms.size();
      bytes = replay_round(*f->fed, f->config, client_ms);
      const auto [lo, hi] = std::minmax_element(client_ms.begin() + static_cast<std::ptrdiff_t>(first),
                                                client_ms.end());
      spread_ms.push_back(*hi - *lo);
    } else {
      f->fed->run_round();
    }
    r.op_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    r.op_at_ns.push_back(t0);

    const std::string round = "round " + std::to_string(f->fed->server().round());
    if (o.traced) {
      // The replay must train exactly what run_round trains.
      const fl::network_stats twin0 = f->twin->traffic();
      f->twin->run_round();
      const std::int64_t twin_bytes = f->twin->traffic().bytes - twin0.bytes;
      if (f->twin->server().broadcast() != f->fed->server().broadcast())
        r.fail(round + ": replayed global model differs from federation::run_round's");
      else if (twin_bytes != bytes)
        r.fail(round + ": replay moved " + std::to_string(bytes) + " B, run_round metered " +
               std::to_string(twin_bytes) + " B");
      round_bytes.push_back(static_cast<double>(twin_bytes));
      profile_step(*f);
    } else {
      bytes = f->fed->traffic().bytes - net0.bytes;
      if (expect_bytes < 0) expect_bytes = bytes;
      if (bytes != expect_bytes || bytes <= 0)
        r.fail(round + ": metered " + std::to_string(bytes) + " B, expected " +
               std::to_string(expect_bytes) + " B");
    }
  } while (now_ns() < window_end);
  set_active_log(nullptr);
  r.cycle_ms = r.op_ms;
  r.cycle_at_ns = r.op_at_ns;
  r.work_per_cycle = static_cast<double>(samples_per_round);

  // Every parameter of the final global model is finite.
  {
    const nn::param_store& params = f->fed->server().global_model().params();
    bool finite = true;
    for (std::size_t k = 0; k < params.size(); ++k)
      for (const float v : params.at(k).value.data()) finite = finite && std::isfinite(v);
    if (!finite) r.check_failed("global model holds a non-finite parameter");
  }
  r.note("warm_global_hash_low32", static_cast<double>(f->warm_hash & 0xffffffffull), "hash");
  r.note("samples_per_round", static_cast<double>(samples_per_round), "count");

  if (o.traced) {
    const span_tree t{log.take()};
    r.layer.push_back({"fl.broadcast_ms", median_or_zero(t.durations_ms("fl.broadcast")), "ms"});
    r.layer.push_back({"fl.receive_ms", median_or_zero(t.durations_ms("fl.receive")), "ms"});
    r.layer.push_back({"fl.aggregate_ms", median_or_zero(t.durations_ms("fl.aggregate")), "ms"});
    r.layer.push_back(
        {"fl.local_update_ms", median_or_zero(t.durations_ms("fl.local_update")), "ms"});
    r.layer.push_back({"fl.client_spread_ms", median_or_zero(spread_ms), "ms"});
    r.layer.push_back({"fl.bytes_per_round", median_or_zero(round_bytes), "B"});
    r.layer.push_back({"models.forward_ms", median_or_zero(t.durations_ms("models.forward")), "ms"});
    r.layer.push_back({"autodiff.backward_ms",
                       median_or_zero(t.durations_ms("autodiff.backward")), "ms"});
    const double step_total = sum(t.durations_ms("fl.profile"));
    r.layer.push_back({"models.forward_share",
                       step_total > 0 ? sum(t.durations_ms("models.forward")) / step_total : 0.0,
                       "ratio"});
    r.note("fl.client_ms_p50", median_or_zero(client_ms), "ms");
    double worst = 0.0;
    if (!t.roots_tiled("fl.round", 0.01, &worst))
      r.check_failed("fl.round spans are not tiled by broadcast, train and aggregate");
    r.note("self_time_tiling_worst", worst, "ratio");
    r.trace_json = chrome_trace_json(t.spans());
  }
  return r;
}

}  // namespace perfbench
