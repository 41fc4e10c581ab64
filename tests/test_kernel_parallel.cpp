// Determinism harness for the prepacked weight-panel cache
// (docs/KERNELS.md).  The contracts under test:
//
//  1. Packing is a pure data rearrangement: packed and unpacked products
//     are bitwise identical.  Dense and Conv2D always forward through
//     packed weight panels; their output equals the span-operand GEMM (the
//     unpacked reference) bit for bit.
//  2. The layer-level invalidation contract (nn/layer.h) keeps prepacked
//     forwards tracking fresh weights through every mutation path —
//     optimizer steps, load_parameters, and zero_grad.
#include <gtest/gtest.h>

#include <vector>

#include "gradcheck.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "nn/sequential.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace helcfl {
namespace {

std::vector<float> flat(const tensor::Tensor& t) {
  return {t.data().begin(), t.data().end()};
}

/// Dense::forward on the span-operand GEMM: x [batch, in] times the
/// unpacked weight [out, in] transposed, bias fused per column.
std::vector<float> dense_reference(nn::Dense& layer, const tensor::Tensor& x) {
  const std::vector<nn::ParamRef> params = layer.params();  // weight, bias
  const std::size_t batch = x.shape()[0];
  std::vector<float> y(batch * layer.out_features());
  tensor::gemm_a_bt_bias_cols(batch, layer.in_features(), layer.out_features(),
                              x.data(), params[0].value, params[1].value, y);
  return y;
}

/// Conv2D::forward (stride 1) on the span-operand GEMM: per sample, the
/// im2col columns [in*k*k, h_out*w_out] times the unpacked weight, bias
/// fused per row.
std::vector<float> conv_reference(nn::Conv2D& conv, const tensor::Tensor& x,
                                  std::size_t pad) {
  const std::vector<nn::ParamRef> params = conv.params();  // weight, bias
  const std::size_t batch = x.shape()[0], c = x.shape()[1];
  const std::size_t h = x.shape()[2], w = x.shape()[3];
  const std::size_t k = conv.kernel_size(), out = conv.out_channels();
  const std::size_t ho = conv.output_extent(h), wo = conv.output_extent(w);
  const std::size_t ckk = c * k * k, hw = ho * wo;
  std::vector<float> col(ckk * hw);
  std::vector<float> y(batch * out * hw);
  for (std::size_t s = 0; s < batch; ++s) {
    std::size_t r = 0;
    for (std::size_t ic = 0; ic < c; ++ic) {
      for (std::size_t ky = 0; ky < k; ++ky) {
        for (std::size_t kx = 0; kx < k; ++kx, ++r) {
          for (std::size_t oy = 0; oy < ho; ++oy) {
            for (std::size_t ox = 0; ox < wo; ++ox) {
              const std::size_t iy = oy + ky, ix = ox + kx;  // padded coordinates
              const bool inside = iy >= pad && iy < h + pad && ix >= pad && ix < w + pad;
              col[r * hw + oy * wo + ox] =
                  inside ? x.data()[((s * c + ic) * h + iy - pad) * w + ix - pad] : 0.0F;
            }
          }
        }
      }
    }
    tensor::gemm_bias_rows(out, ckk, hw, params[0].value, col, params[1].value,
                           std::span<float>(y.data() + s * out * hw, out * hw));
  }
  return y;
}

std::vector<float> random_vec(std::size_t n, util::Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

/// One (m, k, n) problem with operands for the packed-A and packed-B^T
/// products.
struct Problem {
  std::size_t m, k, n;
  std::vector<float> a;      // [m, k]
  std::vector<float> bt;     // [n, k] (gemm_a_bt's B storage)
  std::vector<float> b;      // [k, n]
  std::vector<float> bias_m; // per-row bias, length m
  std::vector<float> bias_n; // per-column bias, length n
};

Problem make_problem(std::size_t m, std::size_t k, std::size_t n,
                     std::uint64_t seed) {
  util::Rng rng(seed);
  Problem p{m, k, n, random_vec(m * k, rng), random_vec(n * k, rng),
            random_vec(k * n, rng), random_vec(m, rng), random_vec(n, rng)};
  return p;
}

TEST(KernelParallel, PackedProductsMatchUnpackedBitwise) {
  const Problem p = make_problem(130, 270, 85, 0xB1);
  std::vector<float> unpacked(p.m * p.n);
  std::vector<float> packed(p.m * p.n);

  // Conv2D-style: prepacked left operand.
  tensor::gemm_bias_rows(p.m, p.k, p.n, p.a, p.b, p.bias_m, unpacked);
  tensor::PackedWeights wa;
  wa.pack_a(p.m, p.k, p.a);
  ASSERT_TRUE(wa.is_a(p.m, p.k));
  tensor::gemm_bias_rows(p.m, p.k, p.n, wa, p.b, p.bias_m, packed);
  EXPECT_EQ(packed, unpacked) << "packed A";

  // Dense-style: prepacked transposed right operand.
  tensor::gemm_a_bt_bias_cols(p.m, p.k, p.n, p.a, p.bt, p.bias_n, unpacked);
  tensor::PackedWeights wb;
  wb.pack_b_trans(p.k, p.n, p.bt);
  ASSERT_TRUE(wb.is_b_trans(p.k, p.n));
  tensor::gemm_a_bt_bias_cols(p.m, p.k, p.n, p.a, wb, p.bias_n, packed);
  EXPECT_EQ(packed, unpacked) << "packed B^T";
}

TEST(KernelParallel, PackedWeightsInvalidateAndRepackTracksNewValues) {
  Problem p = make_problem(64, 48, 40, 0xB2);

  tensor::PackedWeights w;
  w.pack_a(p.m, p.k, p.a);
  EXPECT_TRUE(w.valid());
  w.invalidate();
  EXPECT_FALSE(w.valid());
  EXPECT_FALSE(w.is_a(p.m, p.k));

  // Repack with mutated weights: the product must follow the new values.
  for (float& x : p.a) x *= 2.0F;
  w.pack_a(p.m, p.k, p.a);
  std::vector<float> unpacked(p.m * p.n);
  std::vector<float> packed(p.m * p.n);
  tensor::gemm_bias_rows(p.m, p.k, p.n, p.a, p.b, p.bias_m, unpacked);
  tensor::gemm_bias_rows(p.m, p.k, p.n, w, p.b, p.bias_m, packed);
  EXPECT_EQ(packed, unpacked);

  // A pack for a different shape/side must not satisfy the old query.
  w.pack_b_trans(p.k, p.n, p.bt);
  EXPECT_FALSE(w.is_a(p.m, p.k));
  EXPECT_TRUE(w.is_b_trans(p.k, p.n));
}

TEST(KernelParallel, DenseForwardMatchesUnpackedAndFollowsMutations) {
  util::Rng rng(0xC1);
  nn::Dense packed_layer(23, 17, rng);
  const tensor::Tensor x = testing::random_input({5, 23}, 0xC2);
  EXPECT_EQ(flat(packed_layer.forward(x, /*training=*/false)),
            dense_reference(packed_layer, x));

  // An optimizer step must invalidate the panels via the ParamRef owner
  // back-pointer: the next packed forward sees the stepped weights.
  const tensor::Tensor dy = testing::random_input({5, 17}, 0xC3);
  packed_layer.zero_grad();
  packed_layer.forward(x, /*training=*/true);
  packed_layer.backward(dy);
  nn::Sgd sgd({.learning_rate = 0.1F});
  sgd.step(packed_layer.params());
  EXPECT_EQ(flat(packed_layer.forward(x, false)), dense_reference(packed_layer, x))
      << "post-step";
}

TEST(KernelParallel, Conv2dForwardMatchesUnpackedAndFollowsLoadParameters) {
  util::Rng rng(0xC4);
  nn::Conv2D conv(3, 8, 3, 1, 1, rng);
  const tensor::Tensor x = testing::random_input({2, 3, 9, 9}, 0xC5);
  EXPECT_EQ(flat(conv.forward(x, false)), conv_reference(conv, x, 1));

  // load_parameters must invalidate through Sequential::mark_weights_dirty.
  nn::Sequential model;
  auto& layer = model.emplace<nn::Conv2D>(3, 8, 3, 1, 1, rng);
  model.forward(x, false);  // packs panels
  std::vector<float> params = nn::extract_parameters(model);
  for (float& v : params) v += 0.125F;
  nn::load_parameters(model, params);
  EXPECT_EQ(flat(model.forward(x, false)), conv_reference(layer, x, 1))
      << "post-load";
}

TEST(KernelParallel, GradcheckPassesThroughPrepackedForward) {
  util::Rng rng(0xC6);
  nn::Dense dense(6, 4, rng);
  testing::check_gradients(dense, testing::random_input({3, 6}, 0xC7));
  nn::Conv2D conv(2, 3, 3, 1, 0, rng);
  testing::check_gradients(conv, testing::random_input({1, 2, 5, 5}, 0xC8));
}

}  // namespace
}  // namespace helcfl
