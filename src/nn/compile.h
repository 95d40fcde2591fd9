// Quantizing compile pass over chain-structured model graphs.
//
// The pass has three phases, deliberately separated so each is testable on
// its own:
//   1. parse_chain — walk a freshly built forward graph from input to
//      logits and describe every transform as a replayable `chain_step`.
//      Only chain-shaped graphs compile: a vertex with two input-dependent
//      children (a residual branch), an op outside the replay vocabulary
//      (exactly the ops the zoo's models put on their chain path) or a
//      linear on a non-2-d chain value is a hard PELTA_CHECK error at parse
//      time, never a silent fp32 fallback or a later failure inside a stage.
//   2. plan_fusion — group the chain into fusable int8 stages
//      (linear[+relu], conv2d[+batchnorm2d(eval)][+relu]) and kept-fp32
//      runs. A group any of whose tags matches the keep-fp32 policy stays
//      fp32 — this is the knob the shield placement sweep turns (masked
//      layers fp32 vs int8).
//   3. build_quantized_stage — fold the group's epilogue into the weights
//      (eval batch-norm becomes per-channel scale/bias before per-channel
//      quantization), quantize (tensor/quantized_tensor.h) and pre-pack for
//      ops::detail::qgemm.
//
// A compiled stage executes fp32 -> fp32: quantize activations, int8 GEMM
// with int32 accumulation, dequantize + bias + relu epilogue. Its backward
// is the straight-through fp32 gradient through the DEQUANTIZED weights
// (relu mask from the cached output) — deliberate, documented BPDA
// semantics: attacks differentiating a quantized model get the smooth
// surrogate of the step-shaped quantizer, matching how bench_extension_bpda
// treats other non-differentiable defenses.
//
// models/compiler.h wraps this machinery into a `models::model`
// (calibration over a held-out shard, parameter copying, policy defaults).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "autodiff/graph.h"
#include "autodiff/op.h"
#include "tensor/quantized_tensor.h"
#include "tensor/tensor.h"

namespace pelta::ad {
struct batchnorm_stats;  // ops_norm.h
}  // namespace pelta::ad

namespace pelta::nn {

/// The replay vocabulary: every op a compilable chain may contain.
enum class step_kind : std::uint8_t {
  reshape,
  affine,
  relu,
  linear,  ///< 2-d chain values only: [batch, features]
  conv2d,
  batchnorm2d,
  global_avgpool,
};

/// One transform of the source chain, described for replay. Per-kind payload
/// fields stay defaulted when unused.
struct chain_step {
  step_kind kind{};
  ad::node_id node = ad::invalid_node;  ///< id in the parsed source graph
  std::string tag;                      ///< source node tag (preserved on replay)
  shape_t reshape_dims;                 ///< reshape: per-SAMPLE dims (batch dim dropped)
  float scale = 1.0f;                   ///< affine: y = scale*(x+shift)
  float shift = 0.0f;                   ///< affine only
  std::int64_t stride = 1;              ///< conv2d
  std::int64_t pad = 0;                 ///< conv2d
  float bn_eps = 0.0f;                  ///< batchnorm2d
  const ad::batchnorm_stats* bn_stats = nullptr;  ///< batchnorm2d (source-owned)
  std::vector<std::string> param_names;  ///< non-chain parents, in op-argument order
};

/// Phase 1: describe the graph's input->logits chain. PELTA_CHECKs chain
/// shape, vocabulary membership, eval-mode batch norm and parameter-leaf
/// operands (a weight-standardized conv weight is a transform operand and
/// therefore not compilable).
std::vector<chain_step> parse_chain(const ad::graph& g, ad::node_id input, ad::node_id logits);

/// A run of consecutive chain steps: one fused int8 stage (quantize = true)
/// or one kept-fp32 replay run.
struct fusion_group {
  bool quantize = false;
  std::size_t begin = 0;
  std::size_t end = 0;  ///< [begin, end) into the chain
};

/// Phase 2: partition the chain. Groups whose tags intersect
/// `keep_fp32_tags` stay fp32; adjacent fp32 runs are merged.
std::vector<fusion_group> plan_fusion(const std::vector<chain_step>& chain,
                                      const std::vector<std::string>& keep_fp32_tags);

/// One compiled int8 stage: quantized packed weights, folded bias, epilogue
/// flags and the calibrated activation scale. Immutable after compilation —
/// graphs share it via shared_ptr (op instances are per-node, stages are
/// per-model).
struct quantized_stage {
  bool is_conv = false;
  bool fuse_relu = false;
  std::string tag;        ///< tag of the group's LAST source node
  float act_scale = 1.0f; ///< per-tensor input scale (calibration fills this)

  // linear geometry
  std::int64_t in_features = 0;
  std::int64_t out_features = 0;

  // conv2d geometry
  std::int64_t in_c = 0;
  std::int64_t kh = 0;
  std::int64_t kw = 0;
  std::int64_t stride = 1;
  std::int64_t pad = 0;
  std::int64_t out_c = 0;

  quant::quantized_weights weights;  ///< packed for qgemm, per-channel scales
  std::vector<float> bias;           ///< folded bias; empty = none
  /// Straight-through backward weights, DEQUANTIZED (so backward matches the
  /// forward the attacker actually probes): [out,in] for linear,
  /// [OC,C,KH,KW] for conv.
  tensor w_backward;

  /// fp32 in -> fp32 out. Splits rows (linear) or images (conv) across the
  /// thread pool; int32 accumulation is exact, so the result is bitwise
  /// identical for every PELTA_THREADS value and batch size.
  tensor run(const tensor& x) const;

  /// Straight-through input gradient (see header comment).
  tensor backward_input(const tensor& grad_out, const tensor& x, const tensor& out) const;
};

/// Phase 3: fold + quantize + pack one quantize-planned group. `param_of`
/// resolves a parameter name to its fp32 value (the source model's store).
/// act_scale is left at 1; calibration overwrites it.
quantized_stage build_quantized_stage(
    const std::vector<chain_step>& chain, const fusion_group& group,
    const std::function<const tensor&(const std::string&)>& param_of);

/// Graph op wrapping one compiled stage (fresh instance per graph node,
/// shared immutable stage). Forward runs the int8 path; backward is the
/// straight-through fp32 gradient.
ad::op_ptr make_fused_stage(std::shared_ptr<const quantized_stage> stage);

}  // namespace pelta::nn
