#include "nn/conv2d.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "tensor/gemm_kernel.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace helcfl::nn {

using tensor::Shape;
using tensor::Tensor;

Conv2D::Conv2D(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel_size, std::size_t stride, std::size_t padding,
               util::Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel_size),
      stride_(stride),
      padding_(padding),
      weight_(Shape{out_channels, in_channels, kernel_size, kernel_size}),
      bias_(Shape{out_channels}),
      grad_weight_(Shape{out_channels, in_channels, kernel_size, kernel_size}),
      grad_bias_(Shape{out_channels}) {
  if (stride == 0) throw std::invalid_argument("Conv2D: stride must be positive");
  const auto fan_in = static_cast<float>(in_channels * kernel_size * kernel_size);
  weight_.fill_normal(rng, 0.0F, std::sqrt(2.0F / fan_in));
}

Conv2D::Conv2D(const Conv2D& other)
    : Layer(),
      in_channels_(other.in_channels_),
      out_channels_(other.out_channels_),
      kernel_(other.kernel_),
      stride_(other.stride_),
      padding_(other.padding_),
      weight_(other.weight_),
      bias_(other.bias_),
      grad_weight_(other.grad_weight_),
      grad_bias_(other.grad_bias_) {}
// Scratch and the cached forward input intentionally stay empty in copies:
// clones (one per client replica) grow their own on first use.

std::unique_ptr<Layer> Conv2D::clone() const {
  return std::make_unique<Conv2D>(*this);
}

std::size_t Conv2D::output_extent(std::size_t input_extent) const {
  const std::size_t padded = input_extent + 2 * padding_;
  if (padded < kernel_) {
    throw std::invalid_argument("Conv2D: input extent " + std::to_string(input_extent) +
                                " too small for kernel " + std::to_string(kernel_));
  }
  return (padded - kernel_) / stride_ + 1;
}

namespace {

/// Output positions o with 0 <= o*stride + kt - pad < extent, as [lo, hi).
struct TapRange {
  std::size_t lo;
  std::size_t hi;
};

TapRange valid_taps(std::size_t out_extent, std::size_t stride, std::size_t kt,
                    std::size_t pad, std::size_t extent) {
  std::size_t lo = 0;
  if (kt < pad) lo = (pad - kt + stride - 1) / stride;
  std::size_t hi = 0;
  if (extent + pad > kt) {
    hi = std::min(out_extent, (extent + pad - kt - 1) / stride + 1);
  }
  if (hi < lo) hi = lo;
  return {lo, hi};
}

}  // namespace

void Conv2D::im2col(const float* __restrict__ src, std::size_t h_in,
                    std::size_t w_in, std::size_t h_out, std::size_t w_out,
                    float* __restrict__ dst) const {
  const std::size_t hw = h_out * w_out;
  std::size_t r = 0;
  for (std::size_t ic = 0; ic < in_channels_; ++ic) {
    const float* plane = src + ic * h_in * w_in;
    for (std::size_t ky = 0; ky < kernel_; ++ky) {
      const TapRange oy = valid_taps(h_out, stride_, ky, padding_, h_in);
      for (std::size_t kx = 0; kx < kernel_; ++kx, ++r) {
        const TapRange ox = valid_taps(w_out, stride_, kx, padding_, w_in);
        float* row = dst + r * hw;
        for (std::size_t y = 0; y < h_out; ++y) {
          float* out = row + y * w_out;
          if (y < oy.lo || y >= oy.hi) {
            std::fill(out, out + w_out, 0.0F);
            continue;
          }
          const float* in_row = plane + (y * stride_ + ky - padding_) * w_in;
          std::fill(out, out + ox.lo, 0.0F);
          if (stride_ == 1) {
            const float* s = in_row + (ox.lo + kx - padding_);
            std::copy(s, s + (ox.hi - ox.lo), out + ox.lo);
          } else {
            for (std::size_t x = ox.lo; x < ox.hi; ++x) {
              out[x] = in_row[x * stride_ + kx - padding_];
            }
          }
          std::fill(out + ox.hi, out + w_out, 0.0F);
        }
      }
    }
  }
}

void Conv2D::col2im(const float* __restrict__ src, std::size_t h_in,
                    std::size_t w_in, std::size_t h_out, std::size_t w_out,
                    float* __restrict__ dst) const {
  const std::size_t hw = h_out * w_out;
  std::size_t r = 0;
  for (std::size_t ic = 0; ic < in_channels_; ++ic) {
    float* plane = dst + ic * h_in * w_in;
    for (std::size_t ky = 0; ky < kernel_; ++ky) {
      const TapRange oy = valid_taps(h_out, stride_, ky, padding_, h_in);
      for (std::size_t kx = 0; kx < kernel_; ++kx, ++r) {
        const TapRange ox = valid_taps(w_out, stride_, kx, padding_, w_in);
        const float* row = src + r * hw;
        for (std::size_t y = oy.lo; y < oy.hi; ++y) {
          const float* in = row + y * w_out;
          float* out_row = plane + (y * stride_ + ky - padding_) * w_in;
          if (stride_ == 1) {
            float* d = out_row + (ox.lo + kx - padding_);
            for (std::size_t x = ox.lo; x < ox.hi; ++x) d[x - ox.lo] += in[x];
          } else {
            for (std::size_t x = ox.lo; x < ox.hi; ++x) {
              out_row[x * stride_ + kx - padding_] += in[x];
            }
          }
        }
      }
    }
  }
}

Tensor Conv2D::forward(const Tensor& input, bool training) {
  const Shape& s = input.shape();
  if (s.rank() != 4 || s[1] != in_channels_) {
    throw std::invalid_argument("Conv2D::forward: expected [N, " +
                                std::to_string(in_channels_) + ", H, W], got " +
                                s.to_string());
  }
  const std::size_t batch = s[0];
  const std::size_t h_in = s[2];
  const std::size_t w_in = s[3];
  const std::size_t h_out = output_extent(h_in);
  const std::size_t w_out = output_extent(w_in);
  const std::size_t ckk = in_channels_ * kernel_ * kernel_;
  const std::size_t hw = h_out * w_out;

  Tensor output(Shape{batch, out_channels_, h_out, w_out});
  tensor::detail::ensure_scratch(col_, ckk * hw);
  const float* in = input.data().data();
  float* out = output.data().data();
  // The weight acts as the [out_ch, ckk] left operand of every sample's
  // GEMM; pack its panels once per weight mutation instead of per sample.
  // The product is bitwise the span-operand gemm_bias_rows (ops.h).
  if (!packed_.is_a(out_channels_, ckk)) {
    packed_.pack_a(out_channels_, ckk, weight_.data());
  }
  // Per sample: out[n] = W[out_ch, ckk] * col[ckk, hw] + bias (fused).
  for (std::size_t n = 0; n < batch; ++n) {
    im2col(in + n * in_channels_ * h_in * w_in, h_in, w_in, h_out, w_out,
           col_.data());
    const std::span<const float> col_n(col_.data(), ckk * hw);
    const std::span<float> out_n(out + n * out_channels_ * hw,
                                 out_channels_ * hw);
    tensor::gemm_bias_rows(out_channels_, ckk, hw, packed_, col_n, bias_.data(),
                           out_n);
  }
  if (training) cached_input_ = input;
  return output;
}

Tensor Conv2D::backward(const Tensor& grad_output) {
  assert(!cached_input_.empty() && "backward() requires a training forward()");
  const Shape& s = cached_input_.shape();
  const std::size_t batch = s[0];
  const std::size_t h_in = s[2];
  const std::size_t w_in = s[3];
  const std::size_t h_out = grad_output.shape()[2];
  const std::size_t w_out = grad_output.shape()[3];
  assert(grad_output.shape() == Shape({batch, out_channels_, h_out, w_out}));
  const std::size_t ckk = in_channels_ * kernel_ * kernel_;
  const std::size_t hw = h_out * w_out;

  tensor::detail::ensure_scratch(col_, ckk * hw);
  tensor::detail::ensure_scratch(col_grad_, ckk * hw);

  Tensor grad_input(s);
  const float* in = cached_input_.data().data();
  const float* gout = grad_output.data().data();
  float* gin = grad_input.data().data();
  for (std::size_t n = 0; n < batch; ++n) {
    const std::size_t plane = n * out_channels_ * hw;
    const std::span<const float> gout_n(gout + plane, out_channels_ * hw);
    // Recompute the forward's columns (the scratch was reused across
    // samples, so nothing survives from forward()).
    im2col(in + n * in_channels_ * h_in * w_in, h_in, w_in, h_out, w_out,
           col_.data());
    // grad_W[oc, ckk] += gout[oc, hw] * col^T[hw, ckk]
    tensor::gemm_a_bt_accumulate(out_channels_, hw, ckk, gout_n,
                                 std::span<const float>(col_.data(), ckk * hw),
                                 grad_weight_.data());
    // grad_b[oc] += sum over spatial positions
    for (std::size_t oc = 0; oc < out_channels_; ++oc) {
      const float* g_row = gout + plane + oc * hw;
      float sum = 0.0F;
      for (std::size_t i = 0; i < hw; ++i) sum += g_row[i];
      grad_bias_[oc] += sum;
    }
    // grad_col[ckk, hw] = W^T[ckk, oc] * gout[oc, hw], then fold back.
    tensor::gemm_at_b(ckk, out_channels_, hw, weight_.data(), gout_n,
                      std::span<float>(col_grad_.data(), ckk * hw));
    col2im(col_grad_.data(), h_in, w_in, h_out, w_out,
           gin + n * in_channels_ * h_in * w_in);
  }
  return grad_input;
}

std::vector<ParamRef> Conv2D::params() {
  return {{weight_.data(), grad_weight_.data(), this},
          {bias_.data(), grad_bias_.data(), this}};
}

std::string Conv2D::name() const {
  return "Conv2D(" + std::to_string(in_channels_) + "->" +
         std::to_string(out_channels_) + ", k=" + std::to_string(kernel_) +
         ", s=" + std::to_string(stride_) + ", p=" + std::to_string(padding_) + ")";
}

}  // namespace helcfl::nn
