// The one local-training loop (models::train_epochs): epoch coverage, and
// golden regressions pinning every caller — train_model, the honest FL
// client, the backdoor and evasion-poisoning clients and the BPDA
// surrogate — to the exact parameter and batch-norm bytes their separate
// pre-fold loops produced (reimplemented here, verbatim, as references);
// and digests of a ResNet-56-sim client's updates, which pin the conv
// kernels' bits.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "attacks/bpda.h"
#include "attacks/iterative.h"
#include "fl/poisoning.h"
#include "fused_madd.h"
#include "models/checkpoint.h"
#include "models/mlp.h"
#include "models/trainer.h"
#include "models/vit.h"
#include "models/zoo.h"
#include "nn/optimizer.h"
#include "tee/sealing.h"
#include "tensor/parallel.h"

namespace pelta {
namespace {

data::dataset tiny_dataset() {
  data::dataset_config c = data::cifar10_like();
  c.classes = 4;
  c.train_per_class = 10;
  c.test_per_class = 4;
  return data::dataset{c};
}

models::task_spec tiny_task() {
  models::task_spec t;
  t.classes = 4;
  return t;
}

models::vit_config tiny_vit() {
  models::vit_config c;
  c.name = "loop-vit";
  c.image_size = 16;
  c.patch_size = 4;
  c.dim = 16;
  c.heads = 2;
  c.blocks = 1;
  c.mlp_hidden = 32;
  c.classes = 4;
  c.seed = 5;
  return c;
}

std::vector<std::int64_t> shard_of(std::int64_t first, std::int64_t count) {
  std::vector<std::int64_t> s(static_cast<std::size_t>(count));
  std::iota(s.begin(), s.end(), first);
  return s;
}

// ---- the pre-fold loops, verbatim ------------------------------------------

// data::batch_iterator as it was: the order stream of train_model and
// train_surrogate.
class reference_batch_iterator {
public:
  reference_batch_iterator(std::int64_t dataset_size, std::int64_t batch_size, rng gen)
      : size_{dataset_size}, batch_size_{batch_size}, gen_{gen} {
    order_.resize(static_cast<std::size_t>(size_));
    std::iota(order_.begin(), order_.end(), 0);
    reshuffle();
  }

  std::vector<std::int64_t> next() {
    if (cursor_ >= size_) reshuffle();
    const std::int64_t take = std::min(batch_size_, size_ - cursor_);
    std::vector<std::int64_t> out(order_.begin() + cursor_, order_.begin() + cursor_ + take);
    cursor_ += take;
    return out;
  }
  std::int64_t batches_per_epoch() const { return (size_ + batch_size_ - 1) / batch_size_; }

private:
  void reshuffle() {
    std::shuffle(order_.begin(), order_.end(), gen_.engine());
    cursor_ = 0;
  }

  std::int64_t size_;
  std::int64_t batch_size_;
  rng gen_;
  std::vector<std::int64_t> order_;
  std::int64_t cursor_ = 0;
};

// models::train_model's loop; returns the last epoch's mean loss.
float reference_train_model(models::model& m, const data::dataset& ds,
                            const models::train_config& config) {
  nn::adam opt{config.lr, 0.9f, 0.999f, 1e-8f, config.weight_decay};
  reference_batch_iterator batches{ds.train_size(), config.batch_size, rng{config.seed}};

  float last_loss = 0.0f;
  for (std::int64_t epoch = 0; epoch < config.epochs; ++epoch) {
    double epoch_loss = 0.0;
    const std::int64_t nb = batches.batches_per_epoch();
    for (std::int64_t i = 0; i < nb; ++i) {
      const data::batch b = ds.gather_train(batches.next());
      m.params().zero_grads();
      epoch_loss += models::loss_and_grad_sharded(m, b, config.shards);
      opt.step(m.params());
    }
    last_loss = static_cast<float>(epoch_loss / static_cast<double>(nb));
  }
  return last_loss;
}

// fl_client::local_update's loop (`round` is the client's local round).
void reference_client_update(models::model& m, const std::vector<std::int64_t>& shard,
                             const data::dataset& ds, const fl::local_train_config& config,
                             std::int64_t id, std::int64_t round) {
  nn::adam opt{config.lr};
  rng order_gen{config.seed + static_cast<std::uint64_t>(id) * 7919 +
                static_cast<std::uint64_t>(round) * 104729};

  for (std::int64_t epoch = 0; epoch < config.epochs; ++epoch) {
    std::vector<std::int64_t> order = shard;
    std::shuffle(order.begin(), order.end(), order_gen.engine());
    for (std::size_t start = 0; start < order.size();
         start += static_cast<std::size_t>(config.batch_size)) {
      const std::size_t end =
          std::min(order.size(), start + static_cast<std::size_t>(config.batch_size));
      const std::vector<std::int64_t> indices(order.begin() + static_cast<std::ptrdiff_t>(start),
                                              order.begin() + static_cast<std::ptrdiff_t>(end));
      const data::batch b = ds.gather_train(indices);
      m.params().zero_grads();
      models::loss_and_grad(m, b);
      opt.step(m.params());
    }
  }
}

void reference_poison_batch(data::batch& b, std::int64_t count,
                            const fl::trigger_pattern& trigger, std::int64_t target_class) {
  const std::int64_t n = b.labels.numel();
  const std::int64_t chw = b.images.numel() / n;
  for (std::int64_t i = 0; i < std::min(count, n); ++i) {
    tensor img{shape_t{b.images.size(1), b.images.size(2), b.images.size(3)}};
    const auto src = b.images.data();
    std::copy(src.begin() + i * chw, src.begin() + (i + 1) * chw, img.data().begin());
    const tensor stamped = fl::apply_trigger(img, trigger);
    std::copy(stamped.data().begin(), stamped.data().end(),
              b.images.data().begin() + i * chw);
    b.labels[i] = static_cast<float>(target_class);
  }
}

// backdoor_client::local_update, boost included (`global` is the last
// received broadcast).
void reference_backdoor_update(models::model& m, const std::vector<std::int64_t>& shard,
                               const data::dataset& ds, const fl::local_train_config& config,
                               const fl::backdoor_config& attack, const byte_buffer& global,
                               std::int64_t id, std::int64_t round) {
  nn::adam opt{config.lr};
  rng order_gen{config.seed + static_cast<std::uint64_t>(id) * 7919 +
                static_cast<std::uint64_t>(round) * 104729};

  const std::int64_t epochs = config.epochs * attack.extra_epochs_factor;
  for (std::int64_t epoch = 0; epoch < epochs; ++epoch) {
    std::vector<std::int64_t> order = shard;
    std::shuffle(order.begin(), order.end(), order_gen.engine());
    for (std::size_t start = 0; start < order.size();
         start += static_cast<std::size_t>(config.batch_size)) {
      const std::size_t end =
          std::min(order.size(), start + static_cast<std::size_t>(config.batch_size));
      const std::vector<std::int64_t> indices(order.begin() + static_cast<std::ptrdiff_t>(start),
                                              order.begin() + static_cast<std::ptrdiff_t>(end));
      data::batch b = ds.gather_train(indices);
      const auto poisoned = static_cast<std::int64_t>(
          attack.poison_fraction * static_cast<float>(indices.size()));
      reference_poison_batch(b, poisoned, attack.trigger, attack.target_class);
      m.params().zero_grads();
      models::loss_and_grad(m, b);
      opt.step(m.params());
    }
  }

  if (attack.boost > 1.0f) {
    const byte_buffer local = models::save_state(m);
    byte_buffer boosted;
    std::size_t lo = 0, go = 0;
    while (lo < local.size()) {
      tensor l = deserialize_tensor(local, lo);
      const tensor g = deserialize_tensor(global, go);
      for (std::int64_t i = 0; i < l.numel(); ++i)
        l[i] = g[i] + attack.boost * (l[i] - g[i]);
      serialize_tensor(l, boosted);
    }
    models::load_state(m, boosted);
  }
}

// evasion_poison_client::local_update: unshielded probe, then training with
// the replay set spliced in. `replay` persists across rounds.
void reference_evasion_update(models::model& m, const std::vector<std::int64_t>& shard,
                              const data::dataset& ds, const fl::local_train_config& config,
                              const fl::evasion_poison_config& attack,
                              std::vector<fl::evasion_poison_client::replay_sample>& replay,
                              std::int64_t id, std::int64_t round) {
  const attacks::oracle_factory factory = attacks::clear_oracle_factory(m);
  rng gen{attack.seed + static_cast<std::uint64_t>(round) * 31337};
  for (std::int64_t k = 0; k < attack.crafts_per_round; ++k) {
    const std::int64_t idx = shard[static_cast<std::size_t>(
        gen.uniform_int(0, static_cast<std::int64_t>(shard.size()) - 1))];
    const data::batch one = ds.gather_train({idx});
    tensor image{shape_t{one.images.size(1), one.images.size(2), one.images.size(3)}};
    std::copy(one.images.data().begin(), one.images.data().end(), image.data().begin());
    const auto label = static_cast<std::int64_t>(one.labels[0]);

    auto oracle = factory(gen.next_u64());
    attacks::pgd_config pc;
    pc.eps = attack.params.eps;
    pc.eps_step = attack.params.eps_step;
    pc.steps = attack.params.pgd_steps;
    const attacks::attack_result r = attacks::run_pgd(*oracle, image, label, pc);
    const std::int64_t predicted = models::predict_one(m, r.adversarial);
    if (predicted != label) replay.push_back({r.adversarial, label, predicted});
  }

  nn::adam opt{config.lr};
  rng order_gen{config.seed + static_cast<std::uint64_t>(id) * 7919 +
                static_cast<std::uint64_t>(round) * 104729};
  for (std::int64_t epoch = 0; epoch < config.epochs; ++epoch) {
    std::vector<std::int64_t> order = shard;
    std::shuffle(order.begin(), order.end(), order_gen.engine());
    for (std::size_t start = 0; start < order.size();
         start += static_cast<std::size_t>(config.batch_size)) {
      const std::size_t end =
          std::min(order.size(), start + static_cast<std::size_t>(config.batch_size));
      const std::vector<std::int64_t> indices(order.begin() + static_cast<std::ptrdiff_t>(start),
                                              order.begin() + static_cast<std::ptrdiff_t>(end));
      data::batch b = ds.gather_train(indices);

      const std::int64_t n = b.labels.numel();
      const std::int64_t chw = b.images.numel() / n;
      const auto splice = std::min<std::int64_t>(
          {n / 2, static_cast<std::int64_t>(replay.size())});
      for (std::int64_t i = 0; i < splice; ++i) {
        const auto& s = replay[replay.size() - 1 - static_cast<std::size_t>(i)];
        std::copy(s.x_adv.data().begin(), s.x_adv.data().end(),
                  b.images.data().begin() + i * chw);
        b.labels[i] = static_cast<float>(s.adopted_label);
      }

      m.params().zero_grads();
      models::loss_and_grad(m, b);
      opt.step(m.params());
    }
  }
}

// attacks::train_surrogate's training loop over the relabelled data.
void reference_surrogate_loop(models::model& surrogate, const data::dataset& attacker_data,
                              const tensor& labels, const attacks::surrogate_config& config) {
  nn::adam opt{config.lr};
  reference_batch_iterator batches{attacker_data.train_size(), config.batch_size,
                                   rng{config.seed + 1}};
  for (std::int64_t epoch = 0; epoch < config.epochs; ++epoch) {
    const std::int64_t nb = batches.batches_per_epoch();
    for (std::int64_t i = 0; i < nb; ++i) {
      const std::vector<std::int64_t> idx = batches.next();
      data::batch b = attacker_data.gather_train(idx);
      for (std::size_t k = 0; k < idx.size(); ++k)
        b.labels[static_cast<std::int64_t>(k)] = labels[idx[k]];
      surrogate.params().zero_grads();
      models::loss_and_grad_sharded(surrogate, b, config.shards);
      opt.step(surrogate.params());
    }
  }
}

// ---- epoch coverage ----------------------------------------------------------

// Every epoch visits each index exactly once (the last mini-batch is short
// when the batch size does not divide the split), epochs reshuffle, and the
// order is exactly the stream the retired batch iterator produced.
TEST(TrainLoop, EachEpochVisitsEveryIndexOnceInTheIteratorOrder) {
  const data::dataset ds = tiny_dataset();  // 40 train samples
  models::mlp_config mc;
  mc.classes = 4;
  mc.hidden = {8};
  models::mlp_model m{mc};
  models::train_config tc;
  tc.epochs = 3;
  tc.batch_size = 7;
  tc.seed = 23;

  std::vector<std::vector<std::int64_t>> batches;
  models::train_epochs(m, ds, tc, models::shuffled_order(ds.train_size(), tc.seed),
                       [&](data::batch& b, const std::vector<std::int64_t>& indices) {
                         EXPECT_EQ(b.labels.numel(), static_cast<std::int64_t>(indices.size()));
                         batches.push_back(indices);
                       });

  const std::size_t per_epoch = (40 + 7 - 1) / 7;
  ASSERT_EQ(batches.size(), per_epoch * 3);
  reference_batch_iterator it{ds.train_size(), tc.batch_size, rng{tc.seed}};
  std::vector<std::vector<std::int64_t>> epochs(3);
  for (std::size_t i = 0; i < batches.size(); ++i) {
    EXPECT_EQ(batches[i], it.next()) << "batch " << i;
    auto& epoch = epochs[i / per_epoch];
    epoch.insert(epoch.end(), batches[i].begin(), batches[i].end());
  }
  for (const auto& epoch : epochs) {
    ASSERT_EQ(epoch.size(), 40u);
    const std::set<std::int64_t> seen(epoch.begin(), epoch.end());
    EXPECT_EQ(seen.size(), 40u);
    EXPECT_EQ(*seen.begin(), 0);
    EXPECT_EQ(*seen.rbegin(), 39);
  }
  EXPECT_NE(epochs[0], epochs[1]);
  EXPECT_NE(epochs[1], epochs[2]);
}

TEST(TrainLoop, RejectsDegenerateInputs) {
  const data::dataset ds = tiny_dataset();
  models::mlp_model m{models::mlp_config{}};
  models::train_config tc;
  tc.batch_size = 0;
  EXPECT_THROW(models::train_epochs(m, ds, tc, models::shuffled_order(4, 1)), error);
  tc.batch_size = 4;
  EXPECT_THROW(models::train_epochs(m, ds, tc, [] { return std::vector<std::int64_t>{}; }),
               error);
  EXPECT_THROW((void)models::shuffled_order(0, 1), error);
}

// ---- golden regressions --------------------------------------------------------

// Sharded BN running statistics are not yet deterministic across pool
// widths, so the sharded train_model case runs a BN-free ViT.
TEST(TrainLoop, TrainModelMatchesThePreFoldLoop) {
  const data::dataset ds = tiny_dataset();
  models::vit_model folded{tiny_vit()}, reference{tiny_vit()};
  models::train_config tc;
  tc.epochs = 2;
  tc.batch_size = 12;
  tc.shards = 4;

  const models::train_report report = models::train_model(folded, ds, tc);
  const float ref_loss = reference_train_model(reference, ds, tc);
  EXPECT_EQ(report.final_loss, ref_loss);
  EXPECT_EQ(models::save_state(folded), models::save_state(reference));
}

TEST(TrainLoop, HonestClientMatchesThePreFoldLoop) {
  const data::dataset ds = tiny_dataset();
  const std::vector<std::int64_t> shard = shard_of(4, 18);
  fl::fl_client client{3, models::make_resnet56_sim(tiny_task()), shard, ds};
  const auto reference = models::make_resnet56_sim(tiny_task());
  ASSERT_FALSE(reference->batchnorm_buffers().empty());
  fl::local_train_config lc;
  lc.epochs = 2;
  lc.batch_size = 8;

  byte_buffer global = models::save_state(*reference);
  for (std::int64_t round = 0; round < 2; ++round) {
    client.receive_global(global);
    const fl::model_update update = client.local_update(lc);
    models::load_state(*reference, global);
    reference_client_update(*reference, shard, ds, lc, 3, round);
    EXPECT_EQ(update.client_id, 3);
    EXPECT_EQ(update.sample_count, 18);
    ASSERT_EQ(update.parameters, models::save_state(*reference)) << "round " << round;
    global = update.parameters;
  }
}

using testing::fused_madd_build;

// The honest-client case above replays the client loop through the same
// conv kernels, so it cannot see those kernels change a bit. These FNV-1a
// digests of update.parameters after each of two ResNet-56-sim
// local_update rounds (one shard, the client's default) can: they were
// captured from the per-image im2col + gemm_accumulate_bt weight gradient
// and the row-wise im2col, on the unfused and the fused build. Conv batch
// splits are bit-identical, so the serial and pooled runs share a digest.
TEST(TrainLoop, ResNet56SimClientMatchesPinnedDigests) {
  struct golden {
    std::uint64_t unfused, fused;
  };
  const golden k_rounds[] = {
      {0x80415cc7ec078c1aull, 0xa525a7a6eadb1a30ull},
      {0x12fce1f91afcbbeaull, 0xd197e0f8dd023017ull},
  };
  const bool fused = fused_madd_build();
  const auto run = [&](const std::string& width) {
    const data::dataset ds = tiny_dataset();
    fl::fl_client client{3, models::make_resnet56_sim(tiny_task()), shard_of(4, 18), ds};
    fl::local_train_config lc;
    lc.epochs = 2;
    lc.batch_size = 8;
    byte_buffer global = models::save_state(*models::make_resnet56_sim(tiny_task()));
    for (std::size_t round = 0; round < 2; ++round) {
      client.receive_global(global);
      global = client.local_update(lc).parameters;
      const std::uint64_t got = tee::fnv1a(global.data(), global.size());
      char hex[32];
      std::snprintf(hex, sizeof hex, "0x%016llxull", static_cast<unsigned long long>(got));
      EXPECT_EQ(got, fused ? k_rounds[round].fused : k_rounds[round].unfused)
          << "round " << round << " " << width << (fused ? " fused" : " unfused") << ": " << hex;
    }
  };
  {
    serial_guard guard;
    run("PELTA_THREADS=1");
  }
  run("PELTA_THREADS=" + std::to_string(parallel_thread_count()));
}

TEST(TrainLoop, BackdoorClientMatchesThePreFoldLoop) {
  const data::dataset ds = tiny_dataset();
  const std::vector<std::int64_t> shard = shard_of(10, 16);
  fl::backdoor_config attack;
  attack.target_class = 2;
  attack.poison_fraction = 0.5f;
  attack.boost = 2.0f;
  attack.extra_epochs_factor = 2;
  fl::backdoor_client client{1, std::make_unique<models::vit_model>(tiny_vit()), shard, ds,
                             attack};
  models::vit_model reference{tiny_vit()};
  fl::local_train_config lc;
  lc.epochs = 1;
  lc.batch_size = 6;

  byte_buffer global = models::save_state(reference);
  for (std::int64_t round = 0; round < 2; ++round) {
    client.receive_global(global);
    const fl::model_update update = client.local_update(lc);
    models::load_state(reference, global);
    reference_backdoor_update(reference, shard, ds, lc, attack, global, 1, round);
    ASSERT_EQ(update.parameters, models::save_state(reference)) << "round " << round;
    global = update.parameters;
  }
}

TEST(TrainLoop, EvasionClientMatchesThePreFoldLoop) {
  const data::dataset ds = tiny_dataset();
  const std::vector<std::int64_t> shard = shard_of(0, 20);
  fl::evasion_poison_config attack;
  attack.crafts_per_round = 3;
  attack.params.eps = 0.2f;
  attack.params.eps_step = 0.05f;
  attack.params.pgd_steps = 6;
  fl::evasion_poison_client client{2, std::make_unique<models::vit_model>(tiny_vit()), shard,
                                   ds, attack};
  models::vit_model reference{tiny_vit()};
  std::vector<fl::evasion_poison_client::replay_sample> replay;
  fl::local_train_config lc;
  lc.epochs = 2;
  lc.batch_size = 8;

  byte_buffer global = models::save_state(reference);
  for (std::int64_t round = 0; round < 2; ++round) {
    client.receive_global(global);
    const fl::model_update update = client.local_update(lc);
    models::load_state(reference, global);
    reference_evasion_update(reference, shard, ds, lc, attack, replay, 2, round);
    ASSERT_EQ(update.parameters, models::save_state(reference)) << "round " << round;
    global = update.parameters;
  }
  // The splice only runs on a non-empty replay set.
  ASSERT_EQ(client.replay_set().size(), replay.size());
  EXPECT_GE(replay.size(), 2u);
}

TEST(TrainLoop, DistilledSurrogateMatchesThePreFoldLoop) {
  const data::dataset ds = tiny_dataset();
  models::vit_model victim{tiny_vit()};
  attacks::surrogate_config sc;
  sc.architecture = "ViT-B/16";
  sc.epochs = 2;
  sc.batch_size = 12;
  sc.shards = 2;
  sc.distill = true;

  const attacks::surrogate_result folded = attacks::train_surrogate(victim, ds, sc);
  models::task_spec task = tiny_task();
  task.seed = sc.seed;
  const auto reference = models::make_model(sc.architecture, task);
  reference_surrogate_loop(*reference, ds, models::predict(victim, ds.train_images()), sc);
  EXPECT_EQ(folded.label_queries, ds.train_size());
  EXPECT_EQ(models::save_state(*folded.surrogate), models::save_state(*reference));
}

}  // namespace
}  // namespace pelta
