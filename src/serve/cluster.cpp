#include "serve/cluster.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <exception>
#include <numeric>
#include <utility>

#include "core/simclock.h"
#include "serve/exec.h"
#include "tensor/check.h"
#include "tensor/parallel.h"

namespace pelta::serve {

namespace {

// Event kinds double as the shared queue's event id, so the queue's
// (stamp, id, seq) order IS the cluster's equal-stamp priority: finishes
// retire batches before routing, chaos reshapes the fleet before routing,
// and an arrival stamped exactly at a batch deadline is admitted before the
// deadline closes the batch (the inclusive-window rule plan_batches
// follows).
enum ev_kind : std::int64_t {
  ev_finish = 0,
  ev_kill = 1,
  ev_restart = 2,
  ev_arrival = 3,
  ev_deadline = 4,
};

// Side payload per pushed event, indexed by the queue's seq (every push on
// an open queue consumes exactly one seq).
//   arrival:  a = workload index,  b = 1 when re-routed after a kill
//   deadline: a = slot,            b = the slot's open-generation at push
//   finish:   a = batch index
//   kill/restart: a = slot
struct ev_payload {
  std::int64_t a = 0;
  std::int64_t b = 0;
};

struct slot_state {
  bool alive = false;
  std::int64_t open_batch = -1;  ///< index into plan.batches, -1 when none
  std::int64_t open_gen = 0;     ///< bumped per open; stales old deadline events
  double busy_until_ns = 0.0;    ///< modeled pipeline clock
  std::vector<std::int64_t> inflight;  ///< dispatched batches, finish pending
};

struct held_req {
  std::size_t request = 0;
  bool requeued = false;
};

}  // namespace

cluster_plan plan_cluster(const cluster_config& config, const std::vector<double>& submit_ns,
                          const std::vector<std::int64_t>& ids) {
  PELTA_CHECK_MSG(submit_ns.size() == ids.size(),
                  "plan_cluster needs one id per arrival stamp");
  PELTA_CHECK_MSG(config.replicas >= 1, "a cluster needs at least one replica");
  const batch_policy& policy = config.server.policy;
  PELTA_CHECK_MSG(policy.max_batch >= 1, "batch_policy.max_batch must be >= 1");
  PELTA_CHECK_MSG(policy.max_delay_ns >= 0.0, "batch_policy.max_delay_ns must be >= 0");
  for (double s : submit_ns)
    PELTA_CHECK_MSG(std::isfinite(s), "arrival stamps must be finite, got " << s);

  const std::size_t n = submit_ns.size();
  cluster_plan plan;
  plan.requests = static_cast<std::int64_t>(n);
  const std::int64_t slots = config.replicas;
  plan.final_replica.assign(n, -1);
  plan.routed_per_slot.assign(static_cast<std::size_t>(slots), 0);

  std::vector<slot_state> state(static_cast<std::size_t>(slots));
  for (slot_state& s : state) s.alive = true;
  std::int64_t live = slots;

  core::event_queue events;  // open: the cluster queue never rejects
  std::vector<ev_payload> payload;
  std::int64_t pending_arrivals = 0;
  const auto push_event = [&](double stamp, ev_kind kind, std::int64_t a, std::int64_t b) {
    events.push(stamp, static_cast<std::int64_t>(kind));
    payload.push_back(ev_payload{a, b});
  };
  // (submit_ns, id, index): the canonical request order. Equal-stamp pushes
  // in this order pop in this order via the queue's seq tie-break.
  const auto canonical = [&](std::vector<std::size_t>& requests) {
    std::stable_sort(requests.begin(), requests.end(), [&](std::size_t a, std::size_t b) {
      if (submit_ns[a] != submit_ns[b]) return submit_ns[a] < submit_ns[b];
      return ids[a] < ids[b];
    });
  };
  const auto push_arrivals = [&](double stamp_or_own, const std::vector<std::size_t>& requests,
                                 bool requeued) {
    for (std::size_t r : requests) {
      const double stamp = requeued ? stamp_or_own : submit_ns[r];
      push_event(stamp, ev_arrival, static_cast<std::int64_t>(r), requeued ? 1 : 0);
      ++pending_arrivals;
    }
  };

  {
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    canonical(order);
    push_arrivals(0.0, order, /*requeued=*/false);
  }
  {
    std::vector<chaos_event> chaos = config.chaos;
    std::stable_sort(chaos.begin(), chaos.end(), [](const chaos_event& a, const chaos_event& b) {
      if (a.stamp_ns != b.stamp_ns) return a.stamp_ns < b.stamp_ns;
      return a.replica < b.replica;
    });
    for (const chaos_event& c : chaos) {
      PELTA_CHECK_MSG(std::isfinite(c.stamp_ns), "chaos stamps must be finite");
      PELTA_CHECK_MSG(c.replica >= 0 && c.replica < slots,
                      "chaos event targets slot " << c.replica << " of " << slots);
      push_event(c.stamp_ns, c.kill ? ev_kill : ev_restart, c.replica, 0);
    }
  }
  std::int64_t remaining = static_cast<std::int64_t>(n);

  std::vector<held_req> held;
  std::int64_t rr_cursor = 0;

  const auto flush_held = [&](double stamp) {
    if (held.empty()) return;
    std::vector<std::size_t> requeue;
    std::vector<std::size_t> fresh;
    for (const held_req& h : held) (h.requeued ? requeue : fresh).push_back(h.request);
    held.clear();
    canonical(fresh);
    canonical(requeue);
    // Held-but-never-routed requests keep requeued=false in their decision.
    for (std::size_t r : fresh) {
      push_event(stamp, ev_arrival, static_cast<std::int64_t>(r), 0);
      ++pending_arrivals;
    }
    push_arrivals(stamp, requeue, /*requeued=*/true);
  };

  const auto dispatch_batch = [&](std::int64_t bi) {
    planned_cluster_batch& pb = plan.batches[static_cast<std::size_t>(bi)];
    slot_state& s = state[static_cast<std::size_t>(pb.replica)];
    // Modeled cost only: the plan must never depend on measured enclave
    // charges (it stays pure). Execution folds the real charge in.
    pb.planned_exec_start_ns = std::max(pb.batch.close_ns, s.busy_until_ns);
    pb.planned_finish_ns = config.server.cost.finish_ns(
        pb.planned_exec_start_ns, static_cast<std::int64_t>(pb.batch.members.size()));
    s.busy_until_ns = pb.planned_finish_ns;
    s.inflight.push_back(bi);
    s.open_batch = -1;
    push_event(pb.planned_finish_ns, ev_finish, bi, 0);
  };

  // End-of-stream drain, the shared simclock rule: once no arrival event is
  // pending anywhere, open batches close at their LAST ADMISSION — shutdown
  // never waits out a delay window (same as plan_batches' closed_by_drain).
  const auto drain_open_batches = [&]() {
    for (slot_state& s : state) {
      if (s.open_batch == -1) continue;
      planned_cluster_batch& pb = plan.batches[static_cast<std::size_t>(s.open_batch)];
      pb.batch.closed_by_drain = true;
      pb.batch.close_ns = pb.last_admit_ns;
      dispatch_batch(s.open_batch);
    }
  };

  const auto route = [&](std::size_t req, double at_ns, bool requeued) {
    if (live == 0) {
      held.push_back(held_req{req, requeued});
      return;
    }
    std::int64_t pick = -1;
    for (std::int64_t k = 0; k < slots; ++k) {
      const std::int64_t s = (rr_cursor + k) % slots;
      if (!state[static_cast<std::size_t>(s)].alive) continue;
      pick = s;
      rr_cursor = (s + 1) % slots;
      break;
    }
    PELTA_CHECK_MSG(pick >= 0, "router found no live replica despite live=" << live);
    plan.decisions.push_back(route_decision{req, at_ns, pick, requeued});
    ++plan.routed_per_slot[static_cast<std::size_t>(pick)];
    if (requeued) ++plan.requeued;

    slot_state& s = state[static_cast<std::size_t>(pick)];
    if (s.open_batch == -1) {
      const std::int64_t bi = static_cast<std::int64_t>(plan.batches.size());
      planned_cluster_batch pb;
      pb.replica = pick;
      pb.batch.open_ns = at_ns;
      pb.batch.members.push_back(req);
      pb.last_admit_ns = at_ns;
      plan.batches.push_back(std::move(pb));
      s.open_batch = bi;
      ++s.open_gen;
      if (policy.max_batch == 1) {
        plan.batches.back().batch.closed_by_fill = true;
        plan.batches.back().batch.close_ns = at_ns;
        dispatch_batch(bi);
      } else {
        push_event(at_ns + policy.max_delay_ns, ev_deadline, pick, s.open_gen);
      }
    } else {
      planned_cluster_batch& pb = plan.batches[static_cast<std::size_t>(s.open_batch)];
      pb.batch.members.push_back(req);
      pb.last_admit_ns = at_ns;
      if (static_cast<std::int64_t>(pb.batch.members.size()) >= policy.max_batch) {
        pb.batch.closed_by_fill = true;
        pb.batch.close_ns = at_ns;
        dispatch_batch(s.open_batch);
      }
    }
  };

  // Generous divergence guard: every legitimate schedule is far below it
  // (each request contributes a bounded number of events per kill).
  const std::int64_t guard =
      1'000'000 + 64 * (static_cast<std::int64_t>(n) + static_cast<std::int64_t>(config.chaos.size()) + slots);
  std::int64_t processed = 0;

  while (!events.empty()) {
    const core::sim_event ev = events.pop();
    PELTA_CHECK_MSG(++processed <= guard, "cluster planner diverged (event flood)");
    const ev_payload p = payload[static_cast<std::size_t>(ev.seq)];
    switch (static_cast<ev_kind>(ev.id)) {
      case ev_finish: {
        planned_cluster_batch& pb = plan.batches[static_cast<std::size_t>(p.a)];
        if (pb.aborted) break;  // killed mid-flight; members requeued at the kill
        slot_state& s = state[static_cast<std::size_t>(pb.replica)];
        s.inflight.erase(std::remove(s.inflight.begin(), s.inflight.end(), p.a),
                         s.inflight.end());
        for (std::size_t m : pb.batch.members) {
          PELTA_CHECK_MSG(plan.final_replica[m] == -1,
                          "request served twice (workload index " << m << ")");
          plan.final_replica[m] = pb.replica;
        }
        remaining -= static_cast<std::int64_t>(pb.batch.members.size());
        plan.end_ns = std::max(plan.end_ns, ev.stamp_ns);
        break;
      }
      case ev_kill: {
        slot_state& s = state[static_cast<std::size_t>(p.a)];
        PELTA_CHECK_MSG(s.alive, "chaos kills slot " << p.a << " which is not live");
        std::vector<std::size_t> orphans;
        if (s.open_batch != -1) {
          planned_cluster_batch& pb = plan.batches[static_cast<std::size_t>(s.open_batch)];
          pb.aborted = true;
          orphans = pb.batch.members;
          s.open_batch = -1;
        }
        for (std::int64_t bi : s.inflight) {
          planned_cluster_batch& pb = plan.batches[static_cast<std::size_t>(bi)];
          pb.aborted = true;
          orphans.insert(orphans.end(), pb.batch.members.begin(), pb.batch.members.end());
        }
        s.inflight.clear();
        s.alive = false;
        s.busy_until_ns = ev.stamp_ns;
        --live;
        canonical(orphans);
        push_arrivals(ev.stamp_ns, orphans, /*requeued=*/true);
        break;
      }
      case ev_restart: {
        slot_state& s = state[static_cast<std::size_t>(p.a)];
        PELTA_CHECK_MSG(!s.alive, "chaos restarts slot " << p.a << " which is already live");
        s.alive = true;
        s.busy_until_ns = ev.stamp_ns;  // the kill emptied it: idle from T
        ++live;
        flush_held(ev.stamp_ns);
        break;
      }
      case ev_arrival: {
        --pending_arrivals;
        route(static_cast<std::size_t>(p.a), ev.stamp_ns, p.b != 0);
        // Last pending arrival anywhere: apply the drain rule now (open
        // batches close at their last admission, not their deadline). A
        // later kill requeues into fresh batches.
        if (pending_arrivals == 0) drain_open_batches();
        break;
      }
      case ev_deadline: {
        slot_state& s = state[static_cast<std::size_t>(p.a)];
        if (s.open_batch == -1) break;                // closed by fill/drain/kill
        if (s.open_gen != p.b) break;                 // a different batch is open
        planned_cluster_batch& pb = plan.batches[static_cast<std::size_t>(s.open_batch)];
        pb.batch.close_ns = ev.stamp_ns;  // window expired, stream continues
        dispatch_batch(s.open_batch);
        break;
      }
    }
  }

  PELTA_CHECK_MSG(held.empty(),
                  "cluster schedule ends with " << held.size()
                                                << " request(s) held: every replica was dead "
                                                   "and no restart followed");
  PELTA_CHECK_MSG(remaining == 0,
                  "cluster schedule ends with " << remaining << " unserved request(s)");
  return plan;
}

cluster::cluster(shielded_backend& backend, cluster_config config)
    : backend_(&backend), config_(std::move(config)) {}

cluster_report cluster::run(const std::vector<classify_request>& workload) {
  serving_report header = exec::make_report_header(workload);
  cluster_report report;
  report.requests = header.requests;
  report.results = std::move(header.results);
  report.first_submit_ns = header.first_submit_ns;

  std::vector<double> stamps;
  std::vector<std::int64_t> ids;
  stamps.reserve(workload.size());
  ids.reserve(workload.size());
  for (const classify_request& r : workload) {
    stamps.push_back(r.submit_ns);
    ids.push_back(r.id);
  }
  report.plan = plan_cluster(config_, stamps, ids);

  const std::int64_t slots = config_.replicas;
  std::vector<std::vector<exec::batch_ref>> slot_batches(static_cast<std::size_t>(slots));
  for (std::size_t b = 0; b < report.plan.batches.size(); ++b) {
    const planned_cluster_batch& pb = report.plan.batches[b];
    if (pb.aborted) continue;
    slot_batches[static_cast<std::size_t>(pb.replica)].push_back({b, &pb.batch});
  }

  report.replicas.resize(static_cast<std::size_t>(slots));
  for (std::int64_t s = 0; s < slots; ++s)
    report.replicas[static_cast<std::size_t>(s)].slot = s;

  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(slots));

  // One pool task per replica slot. Each task owns its replica's enclave and
  // hotcall session and runs its batches in plan order through the same
  // exec::run_batches as the single server, with the replica's own
  // simulated pipeline clock and the MEASURED enclave charge folded in (the
  // plan's finish stamps used the pure model). Tasks write disjoint result
  // rows (each request has exactly one surviving batch), so no
  // synchronization is needed; the order-sensitive totals commit in slot
  // order after the join.
  std::vector<task_future> futures(static_cast<std::size_t>(slots));
  for (std::int64_t s = 0; s < slots; ++s) {
    if (slot_batches[static_cast<std::size_t>(s)].empty()) continue;
    futures[static_cast<std::size_t>(s)] = submit_task([&, s] {
      replica_report& rep = report.replicas[static_cast<std::size_t>(s)];
      try {
        tee::enclave enclave;
        enclave_session session{enclave};
        static_cast<batch_run&>(rep) =
            exec::run_batches(workload, slot_batches[static_cast<std::size_t>(s)], *backend_,
                              session, config_.server, report.results);
      } catch (...) {
        errors[static_cast<std::size_t>(s)] = std::current_exception();
      }
    });
  }

  // Join every replica before rethrowing anything, then commit the
  // order-sensitive totals strictly in slot order — bit-identical at every
  // PELTA_THREADS.
  for (std::int64_t s = 0; s < slots; ++s)
    if (futures[static_cast<std::size_t>(s)].valid()) futures[static_cast<std::size_t>(s)].get();
  for (std::int64_t s = 0; s < slots; ++s)
    if (errors[static_cast<std::size_t>(s)]) std::rethrow_exception(errors[static_cast<std::size_t>(s)]);
  for (const replica_report& rep : report.replicas) {
    report.enclave_ns += rep.enclave_ns;
    report.hotcalls += rep.hotcalls;
    report.last_finish_ns = std::max(report.last_finish_ns, rep.last_finish_ns);
  }
  return report;
}

}  // namespace pelta::serve
