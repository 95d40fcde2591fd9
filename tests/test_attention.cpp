// Multi-head attention (nn/attention.cpp) runs as one head-batched chain per
// block: split_heads on q, k and v, one attention-weights node
// softmax(QKᵀ/√dh), one bmm with V, merge_heads. Two layers of pins:
//   * FNV-1a digests of ViT logits, the input adjoint, every parameter
//     adjoint (in creation order) and, at batch 1, the SAGA attention
//     rollout, over heads {1,2,4} x blocks {1,2,3} x batch {1,2,8,32},
//     serial and pooled — captured from the per-head graph (slice / transpose
//     / bmm / scale / softmax / bmm per head, then concat) that the chain
//     replaced;
//   * the graph size: attention adds exactly 6 transforms beyond its four
//     projections for every head count.
// The static initializer pins PELTA_THREADS=8 (without overriding an
// explicit environment setting) so the pooled runs really cross threads.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "attacks/oracle.h"
#include "autodiff/graph.h"
#include "fused_madd.h"
#include "models/vit.h"
#include "nn/attention.h"
#include "tensor/parallel.h"

namespace pelta {
namespace {

const bool k_threads_pinned = [] {
  setenv("PELTA_THREADS", "8", /*overwrite=*/0);
  return true;
}();

std::uint64_t fnv1a(const tensor& t, std::uint64_t h) {
  const auto* p = reinterpret_cast<const unsigned char*>(t.data().data());
  for (std::size_t i = 0; i < static_cast<std::size_t>(t.numel()) * sizeof(float); ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

using testing::fused_madd_build;

// ViT-B/16-sim's shape (16 px, patch 4, dim 32, MLP 64) at the given heads
// and depth.
models::vit_config probe_config(std::int64_t heads, std::int64_t blocks) {
  models::vit_config c;
  c.name = "attn-vit";
  c.dim = 32;
  c.heads = heads;
  c.blocks = blocks;
  c.mlp_hidden = 64;
  c.classes = 10;
  return c;
}

// One forward and one backward from a random logit adjoint: the digest of
// the logits, the input adjoint, every parameter adjoint in creation order
// and (batch 1) the attention rollout.
std::uint64_t vit_digest(std::int64_t heads, std::int64_t blocks, std::int64_t batch) {
  const models::vit_model m{probe_config(heads, blocks)};
  rng gen{static_cast<std::uint64_t>(100 * heads + 10 * blocks + batch)};
  const tensor images = tensor::rand_uniform(gen, {batch, 3, 16, 16}, 0.0f, 1.0f);
  models::forward_pass fp = m.forward(images, ad::norm_mode::eval);
  const tensor seed = tensor::randn(gen, fp.graph.value(fp.logits).shape());
  fp.graph.backward_from(fp.logits, seed);

  std::uint64_t h = 14695981039346656037ull;
  h = fnv1a(fp.graph.value(fp.logits), h);
  h = fnv1a(fp.graph.adjoint(fp.input), h);
  std::map<const ad::parameter*, const tensor*> adjoints;
  for (const auto& [p, adj] : fp.graph.param_adjoints()) adjoints[p] = adj;
  for (std::size_t i = 0; i < m.params().size(); ++i) {
    const auto it = adjoints.find(&m.params().at(i));
    EXPECT_NE(it, adjoints.end()) << m.params().at(i).name;
    if (it != adjoints.end()) h = fnv1a(*it->second, h);
  }
  if (batch == 1) h = fnv1a(attacks::attention_rollout(m, fp.graph, {3, 16, 16}), h);
  return h;
}

struct golden {
  std::int64_t heads;
  std::int64_t blocks;
  std::int64_t batch;
  std::uint64_t unfused;
  std::uint64_t fused;
};

// Captured from the per-head graph before the chain was batched over heads.
const golden k_goldens[] = {
    {1, 1, 1, 0xac67fd61afacb8bfull, 0x94f3791fc2d5c405ull},
    {1, 1, 2, 0xee3d47cb8adcf4c9ull, 0x0f832238d3e42967ull},
    {1, 1, 8, 0xc4ea22ba2b42b71eull, 0x0fb770f723653ea8ull},
    {1, 1, 32, 0xd8fb65daa9191149ull, 0x9db7380632c624e2ull},
    {1, 2, 1, 0x64d1385a41e80c1bull, 0xdd13f2ce83d436b2ull},
    {1, 2, 2, 0xac5ee95489455ef8ull, 0xebd890e85893e394ull},
    {1, 2, 8, 0xb5e296d73f4f753bull, 0x4e5248e958b55f29ull},
    {1, 2, 32, 0x5af86321e90976b4ull, 0x215462fffc0b1115ull},
    {1, 3, 1, 0x01752af8f57446d4ull, 0x2950047f4a2ce525ull},
    {1, 3, 2, 0xcf164287199077bfull, 0x813005f9f2e76129ull},
    {1, 3, 8, 0x7e3ed9c2cfe36754ull, 0xbe0a78f062c8d6c5ull},
    {1, 3, 32, 0xe1714c312d5794ddull, 0xa79f76426827e0edull},
    {2, 1, 1, 0xd4d91a8536ad7bc1ull, 0xab226ddc3b4f57d3ull},
    {2, 1, 2, 0x81454a9f6b97b291ull, 0xa2a23e96ab575595ull},
    {2, 1, 8, 0x7db368bd4477fc71ull, 0x0e4b3e99460130d9ull},
    {2, 1, 32, 0xc898148eaa728df6ull, 0xa038f8afe2080d86ull},
    {2, 2, 1, 0x9bced8572f8148d1ull, 0x3603ba16856da7e6ull},
    {2, 2, 2, 0x0107d6364ce1f609ull, 0xb9643955b8cbc1e4ull},
    {2, 2, 8, 0x5787d47e93a554b0ull, 0xc19ddc71d820ab69ull},
    {2, 2, 32, 0x55ea960c2ce0b8d8ull, 0x203e2f41b1909247ull},
    {2, 3, 1, 0xa5e6f0e70c560e9bull, 0x747d0f1f89608924ull},
    {2, 3, 2, 0x924c97d8fe6bace9ull, 0x1903c1d9b93879eaull},
    {2, 3, 8, 0x069e738065f685bcull, 0x407dc1d199b916bbull},
    {2, 3, 32, 0x1c5c26bf571ffd34ull, 0xd36f174781296b2full},
    {4, 1, 1, 0x22ec8ff257926488ull, 0xa15f43075ca163afull},
    {4, 1, 2, 0x5a51e17fcddf123aull, 0x2f60bee62c41839bull},
    {4, 1, 8, 0x66a8bab1d67d40f2ull, 0x11749ddcb965e40cull},
    {4, 1, 32, 0x9896b2bd20b3d9e7ull, 0x4cd8cc084110c719ull},
    {4, 2, 1, 0x233807ec586cfef1ull, 0x37421591f2b25c5cull},
    {4, 2, 2, 0xc89c773cb8c5de6aull, 0x4e702a55f8aeaf5cull},
    {4, 2, 8, 0xa9578725f4c12f79ull, 0x401a27b5e43a27beull},
    {4, 2, 32, 0xb9a2c3d8945ae3c5ull, 0x11e2d212560febfeull},
    {4, 3, 1, 0x77bc401f5fb4f1fbull, 0xe2e63e0ae80e7d29ull},
    {4, 3, 2, 0xcaa710afb72bab15ull, 0x2e0b1fd91ca21a8eull},
    {4, 3, 8, 0x3e28d2300e1409c2ull, 0x3c21c085845c1f60ull},
    {4, 3, 32, 0x766e930fdf31506aull, 0xa93fa51d589bee3full},
};

TEST(AttentionChain, HeadBatchedChainMatchesThePerHeadDigests) {
  const bool fused = fused_madd_build();
  for (const golden& g : k_goldens) {
    const auto check = [&](const std::string& width) {
      const std::uint64_t got = vit_digest(g.heads, g.blocks, g.batch);
      char hex[32];
      std::snprintf(hex, sizeof hex, "0x%016llxull", static_cast<unsigned long long>(got));
      EXPECT_EQ(got, fused ? g.fused : g.unfused)
          << "heads " << g.heads << " blocks " << g.blocks << " batch " << g.batch << " "
          << width << (fused ? " fused" : " unfused") << ": " << hex;
    };
    {
      serial_guard guard;
      check("PELTA_THREADS=1");
    }
    check("PELTA_THREADS=" + std::to_string(parallel_thread_count()));
  }
}

std::int64_t transform_count(const ad::graph& g) {
  std::int64_t n = 0;
  for (std::int64_t id = 0; id < g.node_count(); ++id)
    n += g.at(static_cast<ad::node_id>(id)).kind == ad::node_kind::transform ? 1 : 0;
  return n;
}

TEST(AttentionChain, AddsSixTransformsBeyondItsProjectionsForEveryHeadCount) {
  for (const std::int64_t heads : {1, 2, 4, 8}) {
    nn::param_store store;
    rng gen{7};
    const nn::multi_head_attention mha{store, gen, "attn", 32, heads};
    ad::graph g;
    const ad::node_id x = g.add_input(tensor::randn(gen, {2, 5, 32}));
    const std::int64_t before = transform_count(g);
    mha.apply(g, x);
    EXPECT_EQ(transform_count(g) - before, 4 + 6) << "heads " << heads;
  }
}

}  // namespace
}  // namespace pelta
