#include "trace.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

namespace perfbench {

namespace {

std::atomic<span_log*> g_log{nullptr};
std::atomic<std::uint32_t> g_thread_ids{0};
thread_local std::int64_t t_current = -1;
thread_local std::uint32_t t_thread = g_thread_ids.fetch_add(1, std::memory_order_relaxed);

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void span_log::add(const span& s) {
  const std::lock_guard<std::mutex> lock{mutex_};
  spans_.push_back(s);
}

std::vector<span> span_log::take() {
  const std::lock_guard<std::mutex> lock{mutex_};
  return std::move(spans_);
}

span_log* active_log() { return g_log.load(std::memory_order_acquire); }
void set_active_log(span_log* log) { g_log.store(log, std::memory_order_release); }

scoped_span::scoped_span(const char* name, std::int64_t parent) : log_{active_log()} {
  if (log_ == nullptr) return;
  s_.id = log_->next_id();
  s_.parent = parent == k_inherit ? t_current : parent;
  s_.name = name;
  s_.thread = t_thread;
  prev_current_ = t_current;
  t_current = s_.id;
  s_.t0 = now_ns();
}

scoped_span::~scoped_span() {
  if (log_ == nullptr) return;
  s_.t1 = now_ns();
  t_current = prev_current_;
  log_->add(s_);
}

span_tree::span_tree(std::vector<span> spans) : spans_{std::move(spans)} {
  std::int64_t max_id = 0;
  for (const span& s : spans_) max_id = std::max(max_id, s.id);
  constexpr std::size_t none = std::numeric_limits<std::size_t>::max();
  pos_of_id_.assign(static_cast<std::size_t>(max_id) + 1, none);
  for (std::size_t i = 0; i < spans_.size(); ++i)
    pos_of_id_[static_cast<std::size_t>(spans_[i].id)] = i;
  kids_.resize(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::int64_t p = spans_[i].parent;
    if (p < 0 || p > max_id) continue;
    const std::size_t pp = pos_of_id_[static_cast<std::size_t>(p)];
    if (pp != none) kids_[pp].push_back(i);
  }
}

std::vector<const span*> span_tree::children(std::int64_t id) const {
  std::vector<const span*> out;
  if (id < 0 || static_cast<std::size_t>(id) >= pos_of_id_.size()) return out;
  const std::size_t p = pos_of_id_[static_cast<std::size_t>(id)];
  if (p >= spans_.size()) return out;
  for (const std::size_t k : kids_[p]) out.push_back(&spans_[k]);
  return out;
}

std::vector<const span*> span_tree::named(const char* name) const {
  std::vector<const span*> out;
  for (const span& s : spans_)
    if (std::strcmp(s.name, name) == 0) out.push_back(&s);
  return out;
}

std::int64_t span_tree::self_ns(const span& s) const {
  std::vector<interval> kids;
  for (const span* c : children(s.id)) kids.push_back(c->iv());
  return perfbench::self_ns(s.iv(), kids);
}

std::vector<double> span_tree::durations_ms(const char* name) const {
  std::vector<double> out;
  for (const span* s : named(name)) out.push_back(static_cast<double>(s->t1 - s->t0) / 1e6);
  return out;
}

std::vector<double> span_tree::self_ms(const char* name) const {
  std::vector<double> out;
  for (const span* s : named(name)) out.push_back(static_cast<double>(self_ns(*s)) / 1e6);
  return out;
}

bool span_tree::roots_tiled(const char* root_name, double tolerance, double* worst) const {
  bool ok = true;
  double worst_share = 0.0;
  for (const span* root : named(root_name)) {
    std::vector<interval> kids;
    double kid_total = 0.0;
    for (const span* c : children(root->id)) {
      kids.push_back(c->iv());
      kid_total += static_cast<double>(c->t1 - c->t0);
    }
    const double dur = std::max(1.0, static_cast<double>(root->t1 - root->t0));
    const double total = static_cast<double>(perfbench::self_ns(root->iv(), kids)) + kid_total;
    worst_share = std::max(worst_share, std::fabs(total - dur) / dur);
    ok = ok && children_tile(root->iv(), kids, tolerance);
  }
  if (worst != nullptr) *worst = worst_share;
  return ok;
}

std::string chrome_trace_json(const std::vector<span>& spans) {
  std::int64_t origin = std::numeric_limits<std::int64_t>::max();
  for (const span& s : spans) origin = std::min(origin, s.t0);
  std::string out = "{\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const span& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"id\":%lld,\"parent\":%lld}}",
                  i == 0 ? "" : ",", s.name, s.thread, static_cast<double>(s.t0 - origin) / 1e3,
                  static_cast<double>(s.t1 - s.t0) / 1e3, static_cast<long long>(s.id),
                  static_cast<long long>(s.parent));
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

}  // namespace perfbench
