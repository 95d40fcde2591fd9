#include "models/trainer.h"

#include <algorithm>
#include <numeric>

#include "autodiff/ops_loss.h"
#include "nn/optimizer.h"
#include "tensor/parallel.h"

namespace pelta::models {

float loss_and_grad(model& m, const data::batch& b) {
  forward_pass fp = m.forward(b.images, ad::norm_mode::train);
  const ad::node_id labels = fp.graph.add_constant(b.labels, "labels");
  const ad::node_id loss =
      fp.graph.add_transform(ad::make_cross_entropy(), {fp.logits, labels}, "loss");
  fp.graph.backward(loss);
  fp.graph.accumulate_param_grads();
  return fp.graph.value(loss).item();
}

float loss_and_grad_sharded(model& m, const data::batch& b, std::int64_t shards) {
  const std::int64_t n = b.images.size(0);
  shards = std::clamp<std::int64_t>(shards, 1, n);
  if (shards == 1) return loss_and_grad(m, b);

  const std::int64_t c = b.images.size(1), h = b.images.size(2), w = b.images.size(3);
  std::vector<ad::graph> graphs(static_cast<std::size_t>(shards));
  std::vector<float> shard_losses(static_cast<std::size_t>(shards), 0.0f);

  parallel_for(shards, [&](std::int64_t s) {
    const std::int64_t lo = s * n / shards, hi = (s + 1) * n / shards;
    const std::int64_t take = hi - lo;
    tensor images{shape_t{take, c, h, w}};
    tensor labels{shape_t{take}};
    auto src = b.images.data();
    std::copy(src.begin() + lo * c * h * w, src.begin() + hi * c * h * w,
              images.data().begin());
    for (std::int64_t i = 0; i < take; ++i) labels[i] = b.labels[lo + i];

    forward_pass fp = m.forward(images, ad::norm_mode::train);
    const ad::node_id lab = fp.graph.add_constant(labels, "labels");
    const ad::node_id loss =
        fp.graph.add_transform(ad::make_cross_entropy(), {fp.logits, lab}, "loss");
    const float frac = static_cast<float>(take) / static_cast<float>(n);
    // Seed with the shard's weight so the merged gradient is the batch mean.
    fp.graph.backward_from(loss, tensor::scalar(frac));
    shard_losses[static_cast<std::size_t>(s)] = fp.graph.value(loss).item() * frac;
    graphs[static_cast<std::size_t>(s)] = std::move(fp.graph);
  });

  // Merge in shard order: deterministic regardless of thread scheduling.
  double total_loss = 0.0;
  for (std::int64_t s = 0; s < shards; ++s) {
    graphs[static_cast<std::size_t>(s)].accumulate_param_grads();
    total_loss += shard_losses[static_cast<std::size_t>(s)];
  }
  return static_cast<float>(total_loss);
}

epoch_order shuffled_order(std::int64_t n, std::uint64_t seed) {
  PELTA_CHECK_MSG(n > 0, "cannot order an empty split");
  std::vector<std::int64_t> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  return [order = std::move(order), gen = rng{seed}]() mutable {
    std::shuffle(order.begin(), order.end(), gen.engine());
    return order;
  };
}

float train_epochs(model& m, const data::dataset& ds, const train_config& config,
                   const epoch_order& order, const batch_edit& edit) {
  PELTA_CHECK_MSG(config.batch_size > 0, "batch_size must be positive");
  nn::adam opt{config.lr, 0.9f, 0.999f, 1e-8f, config.weight_decay};
  const auto bs = static_cast<std::size_t>(config.batch_size);

  float last_loss = 0.0f;
  for (std::int64_t epoch = 0; epoch < config.epochs; ++epoch) {
    const std::vector<std::int64_t> visit = order();
    PELTA_CHECK_MSG(!visit.empty(), "epoch order is empty");
    double epoch_loss = 0.0;
    for (std::size_t start = 0; start < visit.size(); start += bs) {
      const std::vector<std::int64_t> indices(
          visit.begin() + static_cast<std::ptrdiff_t>(start),
          visit.begin() + static_cast<std::ptrdiff_t>(std::min(visit.size(), start + bs)));
      data::batch b = ds.gather_train(indices);
      if (edit) edit(b, indices);
      m.params().zero_grads();
      epoch_loss += loss_and_grad_sharded(m, b, config.shards);
      opt.step(m.params());
    }
    const std::size_t batches = (visit.size() + bs - 1) / bs;
    last_loss = static_cast<float>(epoch_loss / static_cast<double>(batches));
  }
  return last_loss;
}

train_report train_model(model& m, const data::dataset& ds, const train_config& config) {
  train_report report;
  report.final_loss =
      train_epochs(m, ds, config, shuffled_order(ds.train_size(), config.seed));
  report.train_accuracy = accuracy(m, ds.train_images(), ds.train_labels());
  report.test_accuracy = accuracy(m, ds.test_images(), ds.test_labels());
  return report;
}

}  // namespace pelta::models
