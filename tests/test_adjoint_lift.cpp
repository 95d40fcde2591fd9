// The shielded oracle's adjoint lift (attacks/oracle.cpp): a random-kernel
// transposed convolution that carries the clear-layer adjoint back to image
// shape on every query. It runs on three existing kernels —
// conv2d_backward_input (stride = kernel), conv2d over the flipped kernel
// (3x3, stride 1, pad 1) and matmul (dense adjoints) — and each route must
// give the frozen scatter's bits (reference_kernels.h) exactly. Two layers
// of pins:
//   * every route against reference_conv2d_transpose, memcmp, on every lift
//     shape the model zoo and the depth ablation produce, with +0 and -0
//     planted in the adjoint, on every kernel tier, serial and pooled;
//   * gradient digests of whole shielded-oracle queries on small MLP, ViT,
//     ResNet-BN and BiT-GN models, captured from the scalar-scatter lift.
// The static initializer pins PELTA_THREADS=8 (without overriding an
// explicit environment setting) so the pooled runs really cross threads.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include "attacks/oracle.h"
#include "fused_madd.h"
#include "kernel_tiers.h"
#include "models/mlp.h"
#include "models/resnet.h"
#include "models/vit.h"
#include "reference_kernels.h"
#include "tensor/conv.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/parallel.h"

namespace pelta {
namespace {

const bool k_threads_pinned = [] {
  setenv("PELTA_THREADS", "8", /*overwrite=*/0);
  return true;
}();

using ops::reference::flip_kernel;
using ops::reference::reference_conv2d_transpose;

bool same_bits(const tensor& a, const tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

// A random adjoint with +0 and -0 planted: the scatter skips zero inputs,
// the GEMM routes multiply them through, and the two must still agree.
tensor planted_adjoint(rng& gen, const shape_t& shape) {
  tensor d = tensor::randn(gen, shape);
  for (std::int64_t i = 0; i < d.numel(); ++i) {
    if (i % 7 == 3) d[i] = 0.0f;
    if (i % 11 == 5) d[i] = -0.0f;
  }
  return d;
}

// The upsampler's kernel draw: uniform in ±1/sqrt(C'·KH·KW).
tensor lift_kernel(rng& gen, const shape_t& shape) {
  const float a = 1.0f / std::sqrt(static_cast<float>(shape[0] * shape[2] * shape[3]));
  return tensor::rand_uniform(gen, shape, -a, a);
}

enum class route { stride_is_kernel, flipped_3x3, dense };

struct lift_case {
  route path;
  std::int64_t channels;  // C' (token dim D, feature channels, or dense width)
  std::int64_t side;      // adjoint grid side (1 for dense)
  std::int64_t image;     // square image side, 3 channels
};

std::ostream& operator<<(std::ostream& os, const lift_case& c) {
  const char* names[] = {"stride=kernel", "flipped 3x3", "dense"};
  return os << names[static_cast<int>(c.path)] << " C'=" << c.channels << " side=" << c.side
            << " image=" << c.image;
}

// Every lift the model zoo (models/zoo.cpp), the small test models and the
// depth ablation produce, at the 16 px (CIFAR-like) and 32 px
// (ImageNet-like) image sizes.
const std::vector<lift_case>& lift_cases() {
  static const std::vector<lift_case> cases = [] {
    std::vector<lift_case> v;
    for (const int img : {16, 32}) {
      const int ps = img / 4;  // the /16 ViTs' patch: a 4x4 token grid
      // Tokens of the small ViT, ViT-B/16 and ViT-L/16, and the depth
      // ablation's patch adjoint [1, 16, 3·ps·ps]; ViT-B/32's 2x2 grid.
      for (const int d : {16, 32, 48, 3 * ps * ps})
        v.push_back({route::stride_is_kernel, d, 4, img});
      v.push_back({route::stride_is_kernel, 32, 2, img});
      // The depth-1 input adjoint (3 channels) and the stems of widths 8,
      // 12 and 16.
      for (const int c : {3, 8, 12, 16}) v.push_back({route::flipped_3x3, c, img, img});
      // Stages 2 and 3 of ResNet-56 {8,16,32}, ResNet-164 / BiT-R101
      // {12,24,48} and BiT-R152 {16,32,64}: strides 2 and 4.
      for (const int c : {16, 24, 32})
        v.push_back({route::stride_is_kernel, c, img / 2, img});
      for (const int c : {32, 48, 64})
        v.push_back({route::stride_is_kernel, c, img / 4, img});
      // Dense: logits, the MLP hidden widths, the flattened image.
      for (const int d : {4, 32, 64, 128, 3 * img * img})
        v.push_back({route::dense, d, 1, img});
    }
    return v;
  }();
  return cases;
}

// The route the oracle takes for one case, and the frozen scatter's answer
// on the same adjoint and kernel.
struct lift_pair {
  tensor routed;
  tensor frozen;
};

lift_pair lift_both_ways(const lift_case& c, rng& gen) {
  const std::int64_t img = c.image;
  switch (c.path) {
    case route::stride_is_kernel: {
      const std::int64_t s = img / c.side;
      const tensor delta = planted_adjoint(gen, {1, c.channels, c.side, c.side});
      const tensor k = lift_kernel(gen, {c.channels, 3, s, s});
      return {ops::conv2d_backward_input(delta, k, s, 0, {1, 3, img, img}),
              reference_conv2d_transpose(delta, k, s, 0)};
    }
    case route::flipped_3x3: {
      const tensor delta = planted_adjoint(gen, {1, c.channels, img, img});
      const tensor k = lift_kernel(gen, {c.channels, 3, 3, 3});
      return {ops::conv2d(delta, flip_kernel(k), tensor{shape_t{0}}, 1, 1),
              reference_conv2d_transpose(delta, k, 1, 1)};
    }
    case route::dense: {
      const tensor delta = planted_adjoint(gen, {1, c.channels});
      const tensor k = lift_kernel(gen, {c.channels, 3, img, img});
      return {ops::matmul(delta, k.reshape({c.channels, 3 * img * img})).reshape({1, 3, img, img}),
              reference_conv2d_transpose(delta.reshape({1, c.channels, 1, 1}), k, 1, 0)};
    }
  }
  return {};
}

TEST(AdjointLift, EveryRouteMatchesTheFrozenScatterBitForBit) {
  testing::for_each_tier([&](const ops::detail::kernel_table& tier) {
    const auto check = [&](const std::string& width) {
      rng gen{23};
      for (const lift_case& c : lift_cases()) {
        const lift_pair p = lift_both_ways(c, gen);
        ASSERT_EQ(p.routed.shape(), (shape_t{1, 3, c.image, c.image})) << c;
        EXPECT_TRUE(same_bits(p.routed, p.frozen)) << c << " " << width << " " << tier.name;
      }
    };
    {
      serial_guard guard;
      check("PELTA_THREADS=1");
    }
    check("PELTA_THREADS=" + std::to_string(parallel_thread_count()));
  });
}

// ---- end-to-end: shielded-oracle gradient digests ---------------------------

std::uint64_t fnv1a(const tensor& t, std::uint64_t h) {
  const auto* p = reinterpret_cast<const unsigned char*>(t.data().data());
  for (std::size_t i = 0; i < static_cast<std::size_t>(t.numel()) * sizeof(float); ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

using testing::fused_madd_build;

std::unique_ptr<models::model> small_model(const std::string& family) {
  if (family == "mlp") {
    models::mlp_config c;
    c.name = "lift-mlp";
    c.hidden = {64, 32};
    c.classes = 4;
    return std::make_unique<models::mlp_model>(c);
  }
  if (family == "vit") {
    models::vit_config c;
    c.name = "lift-vit";
    c.patch_size = 4;
    c.dim = 16;
    c.heads = 2;
    c.blocks = 2;
    c.mlp_hidden = 32;
    c.classes = 4;
    return std::make_unique<models::vit_model>(c);
  }
  models::resnet_config c;
  c.name = "lift-" + family;
  c.flavor = family == "resnet-bn" ? models::resnet_flavor::batchnorm
                                   : models::resnet_flavor::groupnorm_ws;
  c.stage_widths = {8, 16};
  c.blocks_per_stage = 1;
  c.classes = 4;
  return std::make_unique<models::resnet_model>(c);
}

// Two queries on one kernel, a reset (the kernel is redrawn), a third query:
// the digest of the three input gradients, in order.
std::uint64_t oracle_digest(attacks::gradient_oracle& oracle) {
  rng gen{31};
  const tensor a = tensor::rand_uniform(gen, {3, 16, 16}, 0.0f, 1.0f);
  const tensor b = tensor::rand_uniform(gen, {3, 16, 16}, 0.0f, 1.0f);
  std::uint64_t h = 14695981039346656037ull;
  h = fnv1a(oracle.query(a, 1).gradient, h);
  h = fnv1a(oracle.query(b, 2).gradient, h);
  oracle.reset(gen);
  return fnv1a(oracle.query(a, 3).gradient, h);
}

struct golden {
  const char* family;
  std::int64_t depth;  // 0: the model's paper frontier (make_shielded_oracle)
  const char* lift;    // the adjoint the oracle lifts
  std::uint64_t unfused;
  std::uint64_t fused;
};

// Captured from the scalar-scatter lift (ops::conv2d_transpose) before it
// was routed onto the GEMM kernels.
const golden k_goldens[] = {
    {"mlp", 0, "dense [1,32]", 0x49a8d15b5a587330ull, 0x2c2f6c6b6fc9df57ull},
    {"mlp", 1, "dense [1,64]", 0x2693e8109c578dbfull, 0xb1afbd5259c46fd4ull},
    {"mlp", 5, "dense [1,4]", 0xc000949e2d062784ull, 0x88f2f5e3755c3f61ull},
    {"vit", 0, "tokens [1,17,16]", 0x6a2047f8bdb02a04ull, 0x64dcd777b4f76dd3ull},
    {"vit", 1, "3x3 [1,3,16,16]", 0x0762aca7ce6b7e38ull, 0xdafc49da90410d88ull},
    {"vit", 2, "patches [1,16,48], no class token", 0xbea2bc23fa33fe69ull, 0xbe7e019d10a73248ull},
    {"vit", 3, "tokens [1,16,16], no class token", 0xefca9e4af0c82ee0ull, 0x36ac6d996648aa73ull},
    {"resnet-bn", 0, "3x3 [1,8,16,16]", 0x03b26fa081ad2abdull, 0xa601da9324b5fb10ull},
    {"resnet-bn", 1, "3x3 [1,3,16,16]", 0xcf966406c8602991ull, 0x50bd3c2cdcf34610ull},
    {"resnet-bn", 18, "stride 2 [1,16,8,8]", 0x23d3b78c5aa80477ull, 0x2864053a1ef672f4ull},
    {"bit-gn", 0, "3x3 [1,8,16,16]", 0x152aac9c1b8bce16ull, 0xe400a2422f545428ull},
    {"bit-gn", 1, "3x3 [1,3,16,16]", 0xc69d45e3950f875eull, 0x60d30d9fd15d8a24ull},
    {"bit-gn", 16, "stride 2 [1,16,8,8]", 0xd536123dabbbe5f4ull, 0x984445821bc91e5cull},
};

TEST(AdjointLift, ShieldedGradientsMatchTheScalarScatterDigests) {
  const bool fused = fused_madd_build();
  for (const golden& g : k_goldens) {
    const auto m = small_model(g.family);
    const auto oracle = g.depth == 0 ? attacks::make_shielded_oracle(*m, 97)
                                     : attacks::make_shielded_oracle_depth(*m, g.depth, 97);
    const std::uint64_t got = oracle_digest(*oracle);
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%016llxull", static_cast<unsigned long long>(got));
    EXPECT_EQ(got, fused ? g.fused : g.unfused)
        << g.family << " depth " << g.depth << " (" << g.lift << ")"
        << (fused ? " fused" : " unfused") << ": " << hex;
  }
}

}  // namespace
}  // namespace pelta
