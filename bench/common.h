// Shared utilities for the benchmark binaries: environment-tunable scale
// knobs and a train-once model helper.
//
// Every bench prints the exact knobs and seeds it ran with; override via
//   PELTA_SAMPLES=200 PELTA_EPOCHS=10 PELTA_TRAIN_PER_CLASS=200 ./bench_...
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "models/trainer.h"
#include "models/vit.h"
#include "models/zoo.h"

namespace pelta::bench {

/// Insertion-ordered JSON builder for the BENCH_*.json trajectory records.
/// The hand-rolled writers it replaces had drifted apart (ad-hoc quoting,
/// per-bench trailing-comma logic, no escaping); every bench must emit its
/// machine-readable record through this one code path so the schema files
/// in docs/BENCHMARKS.md stay trustworthy. Field order is emission order.
class json {
public:
  static json object() { return json{false}; }
  static json array() { return json{true}; }

  json& field(const std::string& key, double v) { return raw(key, number(v)); }
  json& field(const std::string& key, std::int64_t v) { return raw(key, std::to_string(v)); }
  json& field(const std::string& key, int v) { return field(key, static_cast<std::int64_t>(v)); }
  json& field(const std::string& key, std::size_t v) {
    return field(key, static_cast<std::int64_t>(v));
  }
  json& field(const std::string& key, bool v) { return raw(key, v ? "true" : "false"); }
  json& field(const std::string& key, const char* v) { return raw(key, quote(v)); }
  json& field(const std::string& key, const std::string& v) { return raw(key, quote(v)); }
  json& field(const std::string& key, const json& v) { return raw(key, v.str()); }

  json& push(const json& v) {
    entries_.emplace_back(std::string{}, v.str());
    return *this;
  }

  /// Render with 2-space indentation (one field / element per line).
  std::string str() const {
    const char open = is_array_ ? '[' : '{';
    const char close = is_array_ ? ']' : '}';
    if (entries_.empty()) return {open, close};
    std::string out(1, open);
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      out += "\n  ";
      if (!is_array_) {
        out += quote(entries_[i].first);
        out += ": ";
      }
      out += indented(entries_[i].second);
      if (i + 1 < entries_.size()) out += ',';
    }
    out += '\n';
    out += close;
    return out;
  }

  /// Write `str()` to `path` (with trailing newline) and log the path.
  void write_file(const std::string& path) const {
    std::ofstream os(path);
    os << str() << "\n";
    std::printf("wrote %s\n", path.c_str());
  }

private:
  explicit json(bool is_array) : is_array_{is_array} {}

  json& raw(const std::string& key, std::string rendered) {
    entries_.emplace_back(key, std::move(rendered));
    return *this;
  }

  static std::string number(double v) {
    std::ostringstream os;
    os << v;
    return os.str();
  }

  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += '"';
    return out;
  }

  /// Re-indent a pre-rendered (possibly multi-line) child by one level.
  static std::string indented(const std::string& s) {
    std::string out;
    for (const char c : s) {
      out += c;
      if (c == '\n') out += "  ";
    }
    return out;
  }

  bool is_array_;
  std::vector<std::pair<std::string, std::string>> entries_;
};

/// Wall seconds elapsed since `t0` on the steady clock.
inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// The one-block, dim-16 ViT the serving and cluster benches drive; `name`
/// is the label their reports print.
inline models::vit_config tiny_vit_config(const std::string& name) {
  models::vit_config c;
  c.name = name;
  c.image_size = 16;
  c.patch_size = 4;
  c.dim = 16;
  c.heads = 2;
  c.blocks = 1;
  c.mlp_hidden = 32;
  c.classes = 6;
  c.seed = 2023;
  return c;
}

inline std::int64_t env_int(const char* name, std::int64_t fallback) {
  if (const char* v = std::getenv(name)) {
    const long long parsed = std::atoll(v);
    if (parsed > 0) return parsed;
  }
  return fallback;
}

/// Nearest-rank percentile: the smallest sample value with at least a
/// fraction `p` of the sample at or below it — rank ceil(p*n), 1-based.
/// The floored `p*(n-1)` index some dashboards hand-roll understates the
/// tail (over 200 samples it reads "p95" off the 94.7th percentile);
/// every bench/example that reports percentiles must go through here.
inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double clamped = std::min(std::max(p, 0.0), 1.0);
  const auto rank =
      static_cast<std::size_t>(std::ceil(clamped * static_cast<double>(values.size())));
  return values[rank == 0 ? 0 : rank - 1];
}

/// Scale knobs shared by the evaluation benches. The paper uses 1000
/// correctly-classified samples and fully pretrained models; defaults here
/// are sized for a CPU run of the whole suite in minutes (robust-accuracy
/// estimator stderr at N=60 is ~6 points — far below the measured effects).
struct scale {
  std::int64_t samples = env_int("PELTA_SAMPLES", 50);
  std::int64_t epochs = env_int("PELTA_EPOCHS", 6);
  std::int64_t train_per_class = env_int("PELTA_TRAIN_PER_CLASS", 60);
  std::int64_t test_per_class = env_int("PELTA_TEST_PER_CLASS", 25);
  std::int64_t shards = env_int("PELTA_SHARDS", 12);
  std::uint64_t seed = static_cast<std::uint64_t>(env_int("PELTA_SEED", 2023));

  void print(const char* bench_name) const {
    std::printf("[%s] samples=%lld epochs=%lld train/class=%lld seed=%llu\n\n", bench_name,
                static_cast<long long>(samples), static_cast<long long>(epochs),
                static_cast<long long>(train_per_class),
                static_cast<unsigned long long>(seed));
  }
};

/// Dataset preset by name with the bench scale applied. The imagenet-like
/// preset trains on fewer images per class: its 32x32 resolution costs ~4x
/// per sample and it has 2x the classes of cifar10_like.
inline data::dataset make_scaled_dataset(const std::string& name, const scale& s) {
  data::dataset_config c = name == "cifar100_like" ? data::cifar100_like()
                           : name == "imagenet_like" ? data::imagenet_like()
                                                     : data::cifar10_like();
  c.train_per_class = name == "imagenet_like" ? std::max<std::int64_t>(20, s.train_per_class / 2)
                                              : s.train_per_class;
  c.test_per_class = s.test_per_class;
  return data::dataset{c};
}

/// Instantiate and train one zoo model on `ds`; prints a progress line.
inline std::unique_ptr<models::model> train_zoo_model(const std::string& paper_name,
                                                      const data::dataset& ds, const scale& s,
                                                      float* clean_accuracy_out = nullptr) {
  models::task_spec task;
  task.image_size = ds.config().image_size;
  task.channels = ds.config().channels;
  task.classes = ds.config().classes;
  task.seed = s.seed;
  auto m = models::make_model(paper_name, task);

  models::train_config tc;
  tc.epochs = s.epochs;
  tc.batch_size = 32;
  tc.lr = 3e-3f;
  tc.seed = s.seed + 1;
  tc.shards = s.shards;
  const models::train_report r = models::train_model(*m, ds, tc);
  std::printf("  trained %-13s on %-14s clean=%5.1f%% (loss %.3f)\n", paper_name.c_str(),
              ds.config().name.c_str(), 100.0 * r.test_accuracy, r.final_loss);
  std::fflush(stdout);
  if (clean_accuracy_out != nullptr) *clean_accuracy_out = r.test_accuracy;
  return m;
}

}  // namespace pelta::bench
