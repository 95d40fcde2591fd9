#include "tensor/conv.h"

#include <algorithm>
#include <cmath>

#include "tensor/kernels.h"
#include "tensor/parallel.h"
#include "tensor/scratch.h"

namespace pelta::ops {

namespace {

std::int64_t conv_out_dim(std::int64_t in, std::int64_t k, std::int64_t stride, std::int64_t pad) {
  return (in + 2 * pad - k) / stride + 1;
}

// True floor/ceil division for a possibly negative numerator, positive b.
std::int64_t div_floor(std::int64_t a, std::int64_t b) {
  return a >= 0 ? a / b : -((-a + b - 1) / b);
}
std::int64_t div_ceil(std::int64_t a, std::int64_t b) {
  return a > 0 ? (a + b - 1) / b : -(-a / b);
}

// The output positions whose tap (ky, kx) lands inside the [h, w] image:
// iy = y*stride - pad + ky lies in [0, h) exactly for y in [y_lo, y_hi), and
// likewise ix for x in [x_lo, x_hi). Empty ranges collapse to lo == hi.
struct tap_window {
  std::int64_t y_lo, y_hi, x_lo, x_hi;
};

tap_window in_bounds_window(std::int64_t h, std::int64_t w, std::int64_t ky, std::int64_t kx,
                            std::int64_t stride, std::int64_t pad, std::int64_t oh,
                            std::int64_t ow) {
  tap_window t;
  t.y_lo = std::clamp<std::int64_t>(div_ceil(pad - ky, stride), 0, oh);
  t.y_hi = std::clamp<std::int64_t>(div_floor(h - 1 + pad - ky, stride) + 1, t.y_lo, oh);
  t.x_lo = std::clamp<std::int64_t>(div_ceil(pad - kx, stride), 0, ow);
  t.x_hi = std::clamp<std::int64_t>(div_floor(w - 1 + pad - kx, stride) + 1, t.x_lo, ow);
  return t;
}

// im2col: expand one image [C,H,W] into a column matrix
// [C*KH*KW, OH*OW] so the convolution becomes a single matmul.
//
// Padded-edge handling is fringe-only: the in-bounds output window is
// solved once per (ky,kx) offset (every channel shares it), the interior is
// copied branch-free, and zeros go only to the pad-clipped fringe — instead
// of a per-element bounds branch over the whole buffer.
//
// Stride 1 with OW == W (every 3x3 pad-1 conv) takes the plane path: entry
// (y, x) of row (ci, ky, kx) is plane element y*W + x + (ky-pad)*W + (kx-pad),
// one fixed flat shift, so the whole in-window span of the row — from
// (y_lo, x_lo) to (y_hi-1, x_hi-1) — is ONE copy of the plane. Inside that
// span an out-of-window column (x < x_lo or x >= x_hi) reads the
// neighbouring image row's edge, which is still inside the plane; those
// columns and the top and bottom fringe are then overwritten with zeros.
// The copy starts at the in-range source element (iy_lo, ix_lo), so no
// pointer before the plane is formed. Every entry ends up holding the same
// float as the row path writes, so the output is bit-identical.
void im2col(const float* img, float* cols, std::int64_t c, std::int64_t h, std::int64_t w,
            std::int64_t kh, std::int64_t kw, std::int64_t stride, std::int64_t pad,
            std::int64_t oh, std::int64_t ow) {
  const std::int64_t spatial = oh * ow;
  const bool plane = stride == 1 && ow == w;
  for (std::int64_t ky = 0; ky < kh; ++ky)
    for (std::int64_t kx = 0; kx < kw; ++kx) {
      const auto [y_lo, y_hi, x_lo, x_hi] = in_bounds_window(h, w, ky, kx, stride, pad, oh, ow);
      for (std::int64_t ci = 0; ci < c; ++ci) {
        float* dst = cols + ((ci * kh + ky) * kw + kx) * spatial;
        if (plane) {
          if (y_lo == y_hi || x_lo == x_hi) {  // the tap lies wholly in the padding
            std::fill(dst, dst + spatial, 0.0f);
            continue;
          }
          const std::int64_t first = y_lo * ow + x_lo, last = (y_hi - 1) * ow + x_hi;
          const float* src = img + ci * h * w + (y_lo - pad + ky) * w + (x_lo - pad + kx);
          std::copy(src, src + (last - first), dst + first);
          std::fill(dst, dst + first, 0.0f);
          std::fill(dst + last, dst + spatial, 0.0f);
          for (std::int64_t y = y_lo; y < y_hi; ++y) {
            std::fill(dst + y * ow, dst + y * ow + x_lo, 0.0f);
            std::fill(dst + y * ow + x_hi, dst + (y + 1) * ow, 0.0f);
          }
          continue;
        }
        std::fill(dst, dst + y_lo * ow, 0.0f);
        for (std::int64_t y = y_lo; y < y_hi; ++y) {
          const std::int64_t iy = y * stride - pad + ky;
          const float* src = img + (ci * h + iy) * w;
          float* drow = dst + y * ow;
          std::fill(drow, drow + x_lo, 0.0f);
          if (x_lo < x_hi) {  // guarded: an empty window must not form the pointer
            const float* s = src + (x_lo * stride - pad + kx);
            if (stride == 1) {
              std::copy(s, s + (x_hi - x_lo), drow + x_lo);
            } else {
              for (std::int64_t x = x_lo; x < x_hi; ++x, s += stride) drow[x] = *s;
            }
          }
          std::fill(drow + x_hi, drow + ow, 0.0f);
        }
        std::fill(dst + y_hi * ow, dst + oh * ow, 0.0f);
      }
    }
}

// im2row: the transpose of im2col's matrix, [OH*OW, C*KH*KW] — row s is
// output position s's receptive field in (ci, ky, kx) order. `img` is an
// unpadded [C,H,W] plane set (a pad > 0 caller passes a zero-bordered
// staging copy), so every tap is in bounds and the inner loop is a
// branch-free kw-float copy. KW > 0 fixes that width at compile time, so
// the copy is KW plain loads and stores; a run-time width pays a loop
// set-up per kernel row, which made the whole 3x3 im2row about five times
// slower (x86-64, GCC -O3).
template <std::int64_t KW>
void im2row_width(const float* img, float* rows, std::int64_t c, std::int64_t h, std::int64_t w,
                  std::int64_t kh, std::int64_t kw, std::int64_t stride, std::int64_t oh,
                  std::int64_t ow) {
  const std::int64_t width = KW > 0 ? KW : kw;
  for (std::int64_t y = 0; y < oh; ++y)
    for (std::int64_t x = 0; x < ow; ++x) {
      const float* origin = img + y * stride * w + x * stride;
      for (std::int64_t ci = 0; ci < c; ++ci)
        for (std::int64_t ky = 0; ky < kh; ++ky, rows += width) {
          const float* s = origin + (ci * h + ky) * w;
          for (std::int64_t kx = 0; kx < width; ++kx) rows[kx] = s[kx];
        }
    }
}

// The zoo's conv widths (ResNet's 1x1 projections, its 3x3 convs and the
// 3x3 box blur) get fixed copies; any other width runs the generic loop.
void im2row(const float* img, float* rows, std::int64_t c, std::int64_t h, std::int64_t w,
            std::int64_t kh, std::int64_t kw, std::int64_t stride, std::int64_t oh,
            std::int64_t ow) {
  switch (kw) {
    case 1: return im2row_width<1>(img, rows, c, h, w, kh, kw, stride, oh, ow);
    case 3: return im2row_width<3>(img, rows, c, h, w, kh, kw, stride, oh, ow);
    default: return im2row_width<0>(img, rows, c, h, w, kh, kw, stride, oh, ow);
  }
}

// col2im: scatter-add a column matrix back into an image (adjoint of im2col).
// The same in-bounds window as im2col, solved once per (ky,kx), replaces a
// bounds test per element; out-of-bounds taps (the padding) have no
// destination and are skipped. Row (ci, ky, kx) adds at most once to each
// element of channel ci's plane, rows of different channels write disjoint
// planes, and within a channel the rows still run in ascending (ky, kx)
// order — so every element sees the same adds in the same order as the
// per-element branchy loop, and the output bits are unchanged.
void col2im(const float* cols, float* img, std::int64_t c, std::int64_t h, std::int64_t w,
            std::int64_t kh, std::int64_t kw, std::int64_t stride, std::int64_t pad,
            std::int64_t oh, std::int64_t ow) {
  const std::int64_t spatial = oh * ow;
  for (std::int64_t ky = 0; ky < kh; ++ky)
    for (std::int64_t kx = 0; kx < kw; ++kx) {
      const auto [y_lo, y_hi, x_lo, x_hi] = in_bounds_window(h, w, ky, kx, stride, pad, oh, ow);
      if (x_lo == x_hi) continue;  // an empty window must not form the pointers
      const std::int64_t len = x_hi - x_lo;
      for (std::int64_t ci = 0; ci < c; ++ci) {
        const float* src = cols + ((ci * kh + ky) * kw + kx) * spatial + x_lo;
        float* dst = img + ci * h * w + (x_lo * stride - pad + kx);
        for (std::int64_t y = y_lo; y < y_hi; ++y) {
          const float* s = src + y * ow;
          float* d = dst + (y * stride - pad + ky) * w;
          if (stride == 1) {
            // pelta-lint: allow(R1) adjoint scatter-add, plain + in a fixed serial row order
            for (std::int64_t x = 0; x < len; ++x) d[x] += s[x];
          } else {
            // pelta-lint: allow(R1) adjoint scatter-add, plain + in a fixed serial row order
            for (std::int64_t x = 0; x < len; ++x) d[x * stride] += s[x];
          }
        }
      }
    }
}

using detail::finite_cache;
using detail::gemm_accumulate;

// Below this per-batch flop count the pool submit overhead beats the split.
constexpr std::int64_t k_conv_parallel_flops = 1 << 15;

}  // namespace

tensor conv2d(const tensor& input, const tensor& weight, const tensor& bias, std::int64_t stride,
              std::int64_t pad) {
  PELTA_CHECK_MSG(input.ndim() == 4 && weight.ndim() == 4,
                  "conv2d shapes " << to_string(input.shape()) << ", " << to_string(weight.shape()));
  const std::int64_t b = input.size(0), c = input.size(1), h = input.size(2), w = input.size(3);
  const std::int64_t oc = weight.size(0), kc = weight.size(1), kh = weight.size(2),
                     kw = weight.size(3);
  PELTA_CHECK_MSG(kc == c, "conv2d channel mismatch " << kc << " vs " << c);
  const bool has_bias = bias.numel() == oc && bias.ndim() == 1;
  if (bias.numel() != 0) PELTA_CHECK_MSG(has_bias, "conv2d bias shape " << to_string(bias.shape()));
  const std::int64_t oh = conv_out_dim(h, kh, stride, pad);
  const std::int64_t ow = conv_out_dim(w, kw, stride, pad);
  PELTA_CHECK_MSG(oh > 0 && ow > 0, "conv2d output collapsed");

  // im2col + GEMM: out[n] = W [OC, C*KH*KW] x cols [C*KH*KW, OH*OW].
  // Images write disjoint output slices, so splitting the batch across the
  // pool is bit-identical to the serial loop; each chunk owns a cols buffer.
  const std::int64_t krows = c * kh * kw, spatial = oh * ow;
  tensor out{shape_t{b, oc, oh, ow}};
  const float* in = input.data().data();
  const float* wt = weight.data().data();
  float* op = out.data().data();
  const auto batch_range = [&](std::int64_t lo, std::int64_t hi) {
    // Chunk-local workspace from the executing thread's arena; im2col
    // rewrites it fully per image, so no zeroing is needed.
    scratch_buffer cols = scratch_arena::local().take(static_cast<std::size_t>(krows * spatial));
    for (std::int64_t n = lo; n < hi; ++n) {
      im2col(in + n * c * h * w, cols.data(), c, h, w, kh, kw, stride, pad, oh, ow);
      float* obase = op + n * oc * spatial;
      if (has_bias)
        for (std::int64_t o = 0; o < oc; ++o)
          for (std::int64_t s = 0; s < spatial; ++s) obase[o * spatial + s] = bias[o];
      // Per image; the kernel scans cols only if the (normally dense)
      // weight matrix contains zeros.
      finite_cache cols_finite;
      gemm_accumulate(wt, cols.data(), obase, oc, krows, spatial, cols_finite);
    }
  };
  if (b >= 2 && b * oc * krows * spatial >= k_conv_parallel_flops)
    parallel_for_range(b, 0, batch_range);
  else
    batch_range(0, b);
  return out;
}

tensor conv2d_backward_input(const tensor& grad_out, const tensor& weight, std::int64_t stride,
                             std::int64_t pad, const shape_t& input_shape) {
  PELTA_CHECK(grad_out.ndim() == 4 && weight.ndim() == 4 && input_shape.size() == 4);
  const std::int64_t b = input_shape[0], c = input_shape[1], h = input_shape[2], w = input_shape[3];
  const std::int64_t oc = weight.size(0), kh = weight.size(2), kw = weight.size(3);
  const std::int64_t oh = grad_out.size(2), ow = grad_out.size(3);
  PELTA_CHECK(grad_out.size(0) == b && grad_out.size(1) == oc && weight.size(1) == c);

  // cols_grad [C*KH*KW, OH*OW] = Wᵀ [C*KH*KW, OC] x grad_out [OC, OH*OW];
  // then col2im scatters back into the image.
  const std::int64_t krows = c * kh * kw, spatial = oh * ow;
  // Transposed weight view, materialized once on the submitting thread's
  // arena. Pool chunks only READ it (the pool's submit/join orders the
  // writes before them); each chunk takes its own cols workspace from its
  // own thread's arena.
  scratch_buffer wt_t_buf =
      scratch_arena::local().take(static_cast<std::size_t>(krows * oc));
  float* wt_t = wt_t_buf.data();
  {
    const float* wt = weight.data().data();
    for (std::int64_t o = 0; o < oc; ++o)
      for (std::int64_t r = 0; r < krows; ++r) wt_t[r * oc + o] = wt[o * krows + r];
  }
  tensor grad_in{input_shape};
  const float* go = grad_out.data().data();
  float* gi = grad_in.data().data();
  // Per-image gradients are disjoint: split the batch, one cols per chunk.
  const auto batch_range = [&](std::int64_t lo, std::int64_t hi) {
    scratch_buffer cols = scratch_arena::local().take(static_cast<std::size_t>(krows * spatial));
    for (std::int64_t n = lo; n < hi; ++n) {
      // The GEMM accumulates into cols, so it needs a zero base every image
      // (arena memory is reused, not fresh).
      std::fill(cols.data(), cols.data() + krows * spatial, 0.0f);
      const float* gslice = go + n * oc * spatial;
      // Per image; the kernel scans the gradient slice only if the
      // (normally dense) transposed weight matrix contains zeros.
      finite_cache grad_finite;
      gemm_accumulate(wt_t, gslice, cols.data(), krows, oc, spatial, grad_finite);
      col2im(cols.data(), gi + n * c * h * w, c, h, w, kh, kw, stride, pad, oh, ow);
    }
  };
  if (b >= 2 && b * krows * oc * spatial >= k_conv_parallel_flops)
    parallel_for_range(b, 0, batch_range);
  else
    batch_range(0, b);
  return grad_in;
}

tensor conv2d_backward_weight(const tensor& grad_out, const tensor& input, std::int64_t stride,
                              std::int64_t pad, const shape_t& weight_shape) {
  PELTA_CHECK(grad_out.ndim() == 4 && input.ndim() == 4 && weight_shape.size() == 4);
  const std::int64_t b = input.size(0), c = input.size(1), h = input.size(2), w = input.size(3);
  const std::int64_t oc = weight_shape[0], kh = weight_shape[2], kw = weight_shape[3];
  const std::int64_t oh = grad_out.size(2), ow = grad_out.size(3);
  PELTA_CHECK(weight_shape[1] == c && grad_out.size(1) == oc);

  // grad_W [OC, C*KH*KW] += grad_out [OC, OH*OW] x rows [OH*OW, C*KH*KW],
  // rows being im2row's layout, the transpose of im2col's: the plain GEMM
  // reads it as B directly, with no per-call transpose-pack. kernels.h
  // promises gemm_accumulate_bt over cols equals gemm_accumulate over the
  // materialised [k,n] transpose — same k-order, same zero-skip gate (rows
  // holds exactly cols' values) — so the bits are those of the bt path.
  const std::int64_t krows = c * kh * kw, spatial = oh * ow;
  const std::int64_t ph = h + 2 * pad, pw = w + 2 * pad;
  scratch_buffer rows = scratch_arena::local().take(static_cast<std::size_t>(spatial * krows));
  // Zero-bordered staging copy of one image; its border is written once.
  scratch_buffer padded =
      scratch_arena::local().take(pad > 0 ? static_cast<std::size_t>(c * ph * pw) : 0);
  std::fill(padded.data(), padded.data() + padded.size(), 0.0f);
  tensor grad_w{weight_shape};
  const float* go = grad_out.data().data();
  const float* in = input.data().data();
  float* gw = grad_w.data().data();
  // Serial on purpose: every image accumulates into the same grad_w, and a
  // batch split would change the float summation order with the thread
  // count — breaking the bit-identical-across-PELTA_THREADS guarantee.
  for (std::int64_t n = 0; n < b; ++n) {
    const float* img = in + n * c * h * w;
    if (pad > 0) {
      for (std::int64_t ci = 0; ci < c; ++ci)
        for (std::int64_t y = 0; y < h; ++y)
          std::copy(img + (ci * h + y) * w, img + (ci * h + y + 1) * w,
                    padded.data() + (ci * ph + y + pad) * pw + pad);
      img = padded.data();
    }
    im2row(img, rows.data(), c, ph, pw, kh, kw, stride, oh, ow);
    // Per image (each has its own rows); scanned only if grad_out has zeros.
    finite_cache rows_finite;
    gemm_accumulate(go + n * oc * spatial, rows.data(), gw, oc, spatial, krows, rows_finite);
  }
  return grad_w;
}

tensor conv2d_backward_bias(const tensor& grad_out) {
  PELTA_CHECK(grad_out.ndim() == 4);
  const std::int64_t b = grad_out.size(0), oc = grad_out.size(1),
                     spatial = grad_out.size(2) * grad_out.size(3);
  tensor grad_b{shape_t{oc}};
  const float* go = grad_out.data().data();
  // One double accumulator per channel across the WHOLE batch (R1): the old
  // shape — double per image, then `grad_b[o] += float(acc)` — re-narrowed
  // between images, so small contributions vanished between large
  // cancelling ones across the batch.
  for (std::int64_t o = 0; o < oc; ++o) {
    double acc = 0.0;
    for (std::int64_t n = 0; n < b; ++n) {
      const float* base = go + (n * oc + o) * spatial;
      for (std::int64_t s = 0; s < spatial; ++s) acc += base[s];
    }
    grad_b[o] = static_cast<float>(acc);
  }
  return grad_b;
}

maxpool_result maxpool2x2(const tensor& input) {
  PELTA_CHECK(input.ndim() == 4);
  const std::int64_t b = input.size(0), c = input.size(1), h = input.size(2), w = input.size(3);
  PELTA_CHECK_MSG(h % 2 == 0 && w % 2 == 0, "maxpool2x2 needs even spatial dims, got "
                                                << to_string(input.shape()));
  const std::int64_t oh = h / 2, ow = w / 2;
  maxpool_result r{tensor{shape_t{b, c, oh, ow}}, tensor{shape_t{b, c, oh, ow}}};
  const float* in = input.data().data();
  float* op = r.output.data().data();
  float* ix = r.indices.data().data();
  for (std::int64_t n = 0; n < b; ++n)
    for (std::int64_t ci = 0; ci < c; ++ci)
      for (std::int64_t y = 0; y < oh; ++y)
        for (std::int64_t x = 0; x < ow; ++x) {
          // Seeded from the window's own first element, so an all -Inf (or
          // all very negative) window still answers, and routes its
          // gradient, within itself; the first NaN in a window wins it.
          std::int64_t best_idx = ((n * c + ci) * h + 2 * y) * w + 2 * x;
          float best = in[best_idx];
          for (std::int64_t dy = 0; dy < 2; ++dy)
            for (std::int64_t dx = 0; dx < 2; ++dx) {
              const std::int64_t idx = ((n * c + ci) * h + (2 * y + dy)) * w + (2 * x + dx);
              const float v = in[idx];
              if (v > best || (std::isnan(v) && !std::isnan(best))) {
                best = v;
                best_idx = idx;
              }
            }
          const std::int64_t oidx = ((n * c + ci) * oh + y) * ow + x;
          op[oidx] = best;
          ix[oidx] = static_cast<float>(best_idx);
        }
  return r;
}

tensor maxpool2x2_backward(const tensor& grad_out, const tensor& indices,
                           const shape_t& input_shape) {
  PELTA_CHECK(grad_out.same_shape(indices));
  tensor grad_in{input_shape};
  auto go = grad_out.data();
  auto ix = indices.data();
  auto gi = grad_in.data();
  for (std::size_t i = 0; i < go.size(); ++i)
    // pelta-lint: allow(R1) argmax scatter-add, plain + in a fixed serial order
    gi[static_cast<std::size_t>(ix[i])] += go[i];
  return grad_in;
}

tensor global_avgpool(const tensor& input) {
  PELTA_CHECK(input.ndim() == 4);
  const std::int64_t b = input.size(0), c = input.size(1),
                     spatial = input.size(2) * input.size(3);
  tensor out{shape_t{b, c}};
  const float* in = input.data().data();
  for (std::int64_t n = 0; n < b; ++n)
    for (std::int64_t ci = 0; ci < c; ++ci) {
      double acc = 0.0;
      const float* base = in + (n * c + ci) * spatial;
      for (std::int64_t s = 0; s < spatial; ++s) acc += base[s];
      out.at(n, ci) = static_cast<float>(acc / static_cast<double>(spatial));
    }
  return out;
}

tensor global_avgpool_backward(const tensor& grad_out, const shape_t& input_shape) {
  PELTA_CHECK(grad_out.ndim() == 2 && input_shape.size() == 4);
  const std::int64_t b = input_shape[0], c = input_shape[1],
                     spatial = input_shape[2] * input_shape[3];
  PELTA_CHECK(grad_out.size(0) == b && grad_out.size(1) == c);
  tensor grad_in{input_shape};
  float* gi = grad_in.data().data();
  const float inv = 1.0f / static_cast<float>(spatial);
  for (std::int64_t n = 0; n < b; ++n)
    for (std::int64_t ci = 0; ci < c; ++ci) {
      const float g = grad_out.at(n, ci) * inv;
      float* base = gi + (n * c + ci) * spatial;
      for (std::int64_t s = 0; s < spatial; ++s) base[s] = g;
    }
  return grad_in;
}

tensor upsample_bilinear(const tensor& input, std::int64_t factor) {
  PELTA_CHECK_MSG(factor >= 1, "upsample factor must be >= 1");
  const bool batched = input.ndim() == 4;
  PELTA_CHECK_MSG(batched || input.ndim() == 3,
                  "upsample_bilinear expects [C,H,W] or [B,C,H,W]");
  const std::int64_t b = batched ? input.size(0) : 1;
  const std::int64_t c = input.size(batched ? 1 : 0);
  const std::int64_t h = input.size(batched ? 2 : 1);
  const std::int64_t w = input.size(batched ? 3 : 2);
  const std::int64_t oh = h * factor, ow = w * factor;
  shape_t out_shape = batched ? shape_t{b, c, oh, ow} : shape_t{c, oh, ow};
  tensor out{out_shape};
  const float* in = input.data().data();
  float* op = out.data().data();
  for (std::int64_t n = 0; n < b; ++n)
    for (std::int64_t ci = 0; ci < c; ++ci) {
      const float* src = in + (n * c + ci) * h * w;
      float* dst = op + (n * c + ci) * oh * ow;
      for (std::int64_t y = 0; y < oh; ++y) {
        // map output pixel centre back into source coordinates
        const float sy = (static_cast<float>(y) + 0.5f) / static_cast<float>(factor) - 0.5f;
        const std::int64_t y0 = std::clamp<std::int64_t>(static_cast<std::int64_t>(std::floor(sy)), 0, h - 1);
        const std::int64_t y1 = std::min<std::int64_t>(y0 + 1, h - 1);
        const float fy = std::clamp(sy - static_cast<float>(y0), 0.0f, 1.0f);
        for (std::int64_t x = 0; x < ow; ++x) {
          const float sx = (static_cast<float>(x) + 0.5f) / static_cast<float>(factor) - 0.5f;
          const std::int64_t x0 = std::clamp<std::int64_t>(static_cast<std::int64_t>(std::floor(sx)), 0, w - 1);
          const std::int64_t x1 = std::min<std::int64_t>(x0 + 1, w - 1);
          const float fx = std::clamp(sx - static_cast<float>(x0), 0.0f, 1.0f);
          const float v00 = src[y0 * w + x0], v01 = src[y0 * w + x1];
          const float v10 = src[y1 * w + x0], v11 = src[y1 * w + x1];
          dst[y * ow + x] = (1 - fy) * ((1 - fx) * v00 + fx * v01) + fy * ((1 - fx) * v10 + fx * v11);
        }
      }
    }
  return out;
}

}  // namespace pelta::ops
