// End-to-end scenario over the extension subsystems: a realistic federation
// (non-iid data, partial participation, robust aggregation) containing a
// backdoor client, whose global model is then checkpointed, reloaded,
// deployed behind a software defense chain with PELTA underneath, and
// attacked — every layer of the repository in one story.
#include <gtest/gtest.h>

#include "attacks/eot.h"
#include "fl/federation.h"
#include "fl/poisoning.h"
#include "models/checkpoint.h"
#include "models/trainer.h"
#include "models/zoo.h"
#include "tee/profiles.h"

namespace pelta {
namespace {

TEST(EndToEnd, FederatedTrainingToShieldedDeployment) {
  // 1. A skewed federation with median aggregation and 75% availability.
  data::dataset_config dc = data::cifar10_like();
  dc.classes = 4;
  dc.train_per_class = 60;
  dc.test_per_class = 20;
  const data::dataset ds{dc};

  models::task_spec task;
  task.image_size = dc.image_size;
  task.classes = dc.classes;
  task.seed = 31;

  fl::federation_config fc;
  fc.clients = 4;
  fc.compromised = 0;
  fc.local.epochs = 2;
  fc.local.batch_size = 16;
  fc.sharding.strategy = fl::shard_strategy::dirichlet;
  fc.sharding.dirichlet_alpha = 1.0f;
  fc.aggregation = fl::aggregation_rule::coordinate_median;
  fc.participation = 0.75f;
  fl::federation fed{fc, [&] { return models::make_model("ViT-B/16", task); }, ds};
  fed.run_rounds(6);
  const float trained_acc = fed.global_test_accuracy();
  ASSERT_GT(trained_acc, 0.8f) << "federation failed to train";

  // 2. Checkpoint the global model and reload it into a fresh instance —
  //    the deployment artifact.
  const std::string path = ::testing::TempDir() + "/e2e_global.peltackp";
  models::save_checkpoint(fed.server().global_model(), path);
  models::task_spec fresh_task = task;
  fresh_task.seed = 777;
  auto deployed = models::make_model("ViT-B/16", fresh_task);
  models::load_checkpoint(*deployed, path);
  EXPECT_FLOAT_EQ(models::accuracy(*deployed, ds.test_images(), ds.test_labels()), trained_acc);

  // 3. Deploy behind quantization with PELTA underneath; a compromised
  //    device mounts PGD+BPDA against it.
  const defenses::preprocessor_chain chain = defenses::make_chain("quantize");
  const defenses::defended_model dm{*deployed, chain};

  attacks::defended_eval_config cfg;
  cfg.kind = attacks::attack_kind::pgd;
  cfg.params = attacks::params_for_dataset("cifar10_like");
  cfg.max_samples = 16;
  cfg.seed = 99;
  const attacks::robust_eval open =
      attacks::evaluate_attack_defended(dm, ds, cfg, attacks::clear_oracle_factory(*deployed));
  const attacks::robust_eval shielded =
      attacks::evaluate_attack_defended(dm, ds, cfg, attacks::shielded_oracle_factory(*deployed));
  EXPECT_LT(open.robust_accuracy, 0.4f);      // software defense alone falls
  EXPECT_GT(shielded.robust_accuracy, 0.7f);  // the enclave holds

  // 4. The TEE budget of that deployment stays within TrustZone limits.
  tee::enclave enclave = tee::make_enclave(tee::tee_profile_kind::trustzone_optee);
  auto probe = attacks::make_shielded_oracle(*deployed, 5, &enclave);
  (void)probe->query(ds.test_image(0), ds.test_label(0));
  EXPECT_GT(enclave.used_bytes(), 0);
  EXPECT_LT(enclave.used_bytes(), enclave.capacity_bytes() / 4);
}

TEST(EndToEnd, BackdooredFederationIsCaughtByTheRobustRuleNotByPelta) {
  // PELTA mitigates what the *client* can craft; a trigger backdoor needs
  // no gradients, so only the server-side rule stops it — the two defenses
  // cover different links, as the poisoning bench quantifies.
  data::dataset_config dc = data::cifar10_like();
  dc.classes = 4;
  dc.train_per_class = 60;
  dc.test_per_class = 20;
  const data::dataset ds{dc};

  models::task_spec task;
  task.image_size = dc.image_size;
  task.classes = dc.classes;
  task.seed = 13;
  const auto factory = [&](std::uint64_t seed) {
    models::task_spec t = task;
    t.seed = seed;
    return models::make_model("ViT-B/16", t);
  };

  const auto run = [&](fl::aggregation_rule rule) {
    fl::backdoor_config bd;
    bd.target_class = 0;
    bd.boost = 4.0f;
    fl::fl_server server{factory(1)};
    std::vector<std::unique_ptr<fl::fl_client>> owned;
    const auto shard_of = [&](std::int64_t k) {
      std::vector<std::int64_t> out;
      for (std::int64_t i = k; i < ds.train_size(); i += 4) out.push_back(i);
      return out;
    };
    for (std::int64_t i = 0; i < 3; ++i)
      owned.push_back(std::make_unique<fl::fl_client>(i, factory(2 + i), shard_of(i), ds));
    owned.push_back(std::make_unique<fl::backdoor_client>(3, factory(99), shard_of(3), ds, bd));

    fl::local_train_config lc;
    lc.epochs = 2;
    lc.batch_size = 16;
    for (std::int64_t r = 0; r < 3; ++r) {
      const byte_buffer g = server.broadcast();
      std::vector<fl::model_update> updates;
      for (auto& c : owned) {
        c->receive_global(g);
        updates.push_back(c->local_update(lc));
      }
      server.aggregate(updates, rule);
    }
    return fl::backdoor_success_rate(server.global_model(), ds, bd, 60);
  };

  const float under_fedavg = run(fl::aggregation_rule::fedavg);
  const float under_median = run(fl::aggregation_rule::coordinate_median);
  EXPECT_GT(under_fedavg, 0.5f);
  EXPECT_LT(under_median, under_fedavg - 0.3f);
}

}  // namespace
}  // namespace pelta
