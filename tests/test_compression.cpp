#include "nn/compression.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.h"

namespace helcfl::nn {
namespace {

std::vector<float> random_weights(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> w(n);
  for (auto& v : w) v = static_cast<float>(rng.normal(0.0, 0.5));
  return w;
}

TEST(CompressIdentity, LosslessAndFullSize) {
  const auto w = random_weights(100, 1);
  const CompressedModel c = compress_identity(w);
  EXPECT_EQ(c.reconstructed, w);
  EXPECT_EQ(c.wire_bits, 3200u);
}

TEST(Quantization, WireSizeFormula) {
  const auto w = random_weights(1000, 2);
  const CompressedModel c = compress_uniform_quantization(w, 8);
  EXPECT_EQ(c.wire_bits, 32u + 8u * 1000u);
}

TEST(Quantization, ReconstructionErrorBounded) {
  const auto w = random_weights(1000, 3);
  float max_abs = 0.0F;
  for (const float v : w) max_abs = std::max(max_abs, std::abs(v));
  const CompressedModel c = compress_uniform_quantization(w, 8);
  const float step = max_abs / 127.0F;  // 2^7 - 1 levels
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_LE(std::abs(c.reconstructed[i] - w[i]), step / 2.0F + 1e-6F);
  }
}

TEST(Quantization, MoreBitsLessError) {
  const auto w = random_weights(2000, 4);
  auto error = [&](unsigned bits) {
    const CompressedModel c = compress_uniform_quantization(w, bits);
    double sum = 0.0;
    for (std::size_t i = 0; i < w.size(); ++i) {
      sum += std::abs(c.reconstructed[i] - w[i]);
    }
    return sum;
  };
  EXPECT_LT(error(8), error(4));
  EXPECT_LT(error(4), error(2));
}

TEST(Quantization, OneBitIsSignTimesScale) {
  const std::vector<float> w = {0.5F, -0.3F, 0.9F};
  const CompressedModel c = compress_uniform_quantization(w, 1);
  EXPECT_FLOAT_EQ(c.reconstructed[0], 0.9F);
  EXPECT_FLOAT_EQ(c.reconstructed[1], -0.9F);
  EXPECT_FLOAT_EQ(c.reconstructed[2], 0.9F);
}

TEST(Quantization, AllZerosStayZero) {
  const std::vector<float> w(50, 0.0F);
  const CompressedModel c = compress_uniform_quantization(w, 8);
  for (const float v : c.reconstructed) EXPECT_EQ(v, 0.0F);
}

TEST(Quantization, RejectsBadBits) {
  const auto w = random_weights(10, 5);
  EXPECT_THROW(compress_uniform_quantization(w, 0), std::invalid_argument);
  EXPECT_THROW(compress_uniform_quantization(w, 17), std::invalid_argument);
}

TEST(Sparsification, KeepsExactlyRequestedCount) {
  const auto w = random_weights(1000, 6);
  const CompressedModel c = compress_topk_sparsification(w, 0.1);
  std::size_t nonzero = 0;
  for (const float v : c.reconstructed) {
    if (v != 0.0F) {
      ++nonzero;
    }
  }
  EXPECT_EQ(nonzero, 100u);
  EXPECT_EQ(c.wire_bits, 100u * 64u);
}

TEST(Sparsification, KeepsLargestMagnitudes) {
  const std::vector<float> w = {0.1F, -5.0F, 0.2F, 3.0F, -0.05F};
  const CompressedModel c = compress_topk_sparsification(w, 0.4);  // keep 2
  EXPECT_EQ(c.reconstructed[0], 0.0F);
  EXPECT_EQ(c.reconstructed[1], -5.0F);
  EXPECT_EQ(c.reconstructed[2], 0.0F);
  EXPECT_EQ(c.reconstructed[3], 3.0F);
  EXPECT_EQ(c.reconstructed[4], 0.0F);
}

TEST(Sparsification, KeptValuesAreExact) {
  const auto w = random_weights(500, 7);
  const CompressedModel c = compress_topk_sparsification(w, 0.2);
  for (std::size_t i = 0; i < w.size(); ++i) {
    if (c.reconstructed[i] != 0.0F) EXPECT_EQ(c.reconstructed[i], w[i]);
  }
}

TEST(Sparsification, KeepRatioOneIsLossless) {
  const auto w = random_weights(64, 8);
  const CompressedModel c = compress_topk_sparsification(w, 1.0);
  // Zeros in the input stay zero but everything kept is exact; with random
  // normals there are no exact zeros.
  EXPECT_EQ(c.reconstructed, w);
}

TEST(Sparsification, TiesResolvedDeterministically) {
  const std::vector<float> w = {1.0F, 1.0F, 1.0F, 1.0F};
  const CompressedModel c = compress_topk_sparsification(w, 0.5);
  EXPECT_EQ(c.reconstructed, (std::vector<float>{1.0F, 1.0F, 0.0F, 0.0F}));
}

TEST(Sparsification, AtLeastOneKept) {
  const auto w = random_weights(1000, 9);
  const CompressedModel c = compress_topk_sparsification(w, 1e-9);
  std::size_t nonzero = 0;
  for (const float v : c.reconstructed) {
    if (v != 0.0F) ++nonzero;
  }
  EXPECT_EQ(nonzero, 1u);
}

TEST(Sparsification, RejectsBadRatio) {
  const auto w = random_weights(10, 10);
  EXPECT_THROW(compress_topk_sparsification(w, 0.0), std::invalid_argument);
  EXPECT_THROW(compress_topk_sparsification(w, 1.5), std::invalid_argument);
}

TEST(Compression, DispatchMatchesDirectCalls) {
  const auto w = random_weights(200, 11);
  EXPECT_EQ(compress(w, {.kind = CompressionKind::kNone}).wire_bits,
            compress_identity(w).wire_bits);
  EXPECT_EQ(compress(w, {.kind = CompressionKind::kQuantization,
                         .quantization_bits = 4})
                .wire_bits,
            compress_uniform_quantization(w, 4).wire_bits);
  EXPECT_EQ(compress(w, {.kind = CompressionKind::kSparsification,
                         .sparsify_keep_ratio = 0.25})
                .wire_bits,
            compress_topk_sparsification(w, 0.25).wire_bits);
}

TEST(Compression, ParseKnownNames) {
  EXPECT_EQ(parse_compression_kind("none"), CompressionKind::kNone);
  EXPECT_EQ(parse_compression_kind("quantization"), CompressionKind::kQuantization);
  EXPECT_EQ(parse_compression_kind("sparsification"),
            CompressionKind::kSparsification);
  EXPECT_THROW(parse_compression_kind("zip"), std::invalid_argument);
}

TEST(Compression, QuantizationCompressesEightFold) {
  const auto w = random_weights(4096, 12);
  const auto c = compress_uniform_quantization(w, 4);
  const double ratio = static_cast<double>(c.wire_bits) /
                       static_cast<double>(compress_identity(w).wire_bits);
  EXPECT_NEAR(ratio, 4.0 / 32.0, 0.01);
}

}  // namespace
}  // namespace helcfl::nn
