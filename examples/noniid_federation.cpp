// Example: a realistic federation — non-iid client data, Byzantine-robust
// aggregation, and a checkpointed global model whose frontier the enclave
// will protect at deployment.
//
// Real FL populations never hold iid data: each phone sees its own skewed
// slice of the world. This walk-through partitions the training set with a
// Dirichlet(α) sampler at three skew levels, trains the same federation on
// each, and shows the accuracy cost of skew; it then saves the final
// global model with models::save_checkpoint — the artifact a PELTA
// deployment pins and shields.
//
//   build/examples/noniid_federation
#include <cstdio>

#include "core/table.h"
#include "fl/federation.h"
#include "models/checkpoint.h"
#include "models/trainer.h"
#include "models/zoo.h"

int main() {
  using namespace pelta;

  data::dataset_config dc = data::cifar10_like();
  dc.classes = 6;
  dc.train_per_class = 60;
  dc.test_per_class = 20;
  const data::dataset ds{dc};

  const fl::model_factory factory = [&] {
    models::task_spec task;
    task.classes = dc.classes;
    task.seed = 11;
    return models::make_vit_b16_sim(task);
  };

  std::printf("federation: 5 clients, 6 rounds, coordinate-median aggregation\n\n");
  text_table t;
  t.set_header({"Client data distribution", "Mean shard entropy", "Global accuracy"});

  struct setting {
    const char* label;
    fl::shard_strategy strategy;
    float alpha;
  };
  const setting settings[] = {
      {"iid", fl::shard_strategy::iid, 0.0f},
      {"Dirichlet(1.0)", fl::shard_strategy::dirichlet, 1.0f},
      {"Dirichlet(0.1) — heavy skew", fl::shard_strategy::dirichlet, 0.1f},
      {"by-class — pathological", fl::shard_strategy::by_class, 0.0f},
  };

  std::string best_label;
  float best_acc = -1.0f;
  std::unique_ptr<fl::federation> best_fed;
  for (const setting& s : settings) {
    fl::federation_config cfg;
    cfg.clients = 5;
    cfg.compromised = 0;
    cfg.local.epochs = 2;
    cfg.local.batch_size = 16;
    cfg.sharding.strategy = s.strategy;
    cfg.sharding.dirichlet_alpha = s.alpha;
    cfg.aggregation = fl::aggregation_rule::coordinate_median;

    auto fed = std::make_unique<fl::federation>(cfg, factory, ds);
    // entropy over each client's label mix, via a probe shard rebuild
    double entropy = 0.0;
    for (const auto& shard : fl::make_shards(ds, cfg.clients, cfg.sharding, cfg.seed))
      entropy += fl::shard_label_entropy(ds, shard);
    entropy /= static_cast<double>(cfg.clients);

    fed->run_rounds(6);
    const float acc = fed->global_test_accuracy();
    t.add_row({s.label, fixed(entropy, 2) + " nats", pct(acc)});
    if (acc > best_acc) {
      best_acc = acc;
      best_label = s.label;
      best_fed = std::move(fed);
    }
    std::printf("  %-28s done\n", s.label);
    std::fflush(stdout);
  }
  std::printf("\n%s\n", t.to_string().c_str());

  // Persist the best global model — the artifact a deployment shields.
  const std::string path = "/tmp/pelta_noniid_global.peltackp";
  models::save_checkpoint(best_fed->server().global_model(), path);
  std::printf("checkpointed the '%s' global model to %s\n", best_label.c_str(), path.c_str());
  std::printf("(reload with models::load_checkpoint; its name reads back as '%s')\n",
              models::checkpoint_model_name(path).c_str());

  std::printf("\nReading: median aggregation tolerates moderate skew, and even the\n"
              "pathological by-class split still learns — but every step away from\n"
              "iid costs accuracy, which is why FL protocols tune client sampling\n"
              "before they tune anything else.\n");
  return best_acc > 0.7f ? 0 : 1;
}
