#include "nn/compression.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace helcfl::nn {

CompressedModel compress_identity(std::span<const float> weights) {
  CompressedModel out;
  out.reconstructed.assign(weights.begin(), weights.end());
  out.wire_bits = weights.size() * 32;
  return out;
}

CompressedModel compress_uniform_quantization(std::span<const float> weights,
                                              unsigned bits) {
  if (bits < 1 || bits > 16) {
    throw std::invalid_argument("compress_uniform_quantization: bits must be 1..16");
  }
  float max_abs = 0.0F;
  for (const float w : weights) max_abs = std::max(max_abs, std::abs(w));

  CompressedModel out;
  out.reconstructed.resize(weights.size());
  out.wire_bits = 32 + static_cast<std::size_t>(bits) * weights.size();
  if (max_abs == 0.0F) return out;  // all zeros reconstruct exactly

  // Symmetric signed grid with 2^(bits-1) - 1 positive levels (1-bit
  // degenerates to sign * scale).
  const auto levels = static_cast<float>((1u << (bits - 1)) - 1u);
  const float scale = levels > 0.0F ? max_abs / levels : max_abs;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (levels > 0.0F) {
      const float q = std::round(weights[i] / scale);
      out.reconstructed[i] = std::clamp(q, -levels, levels) * scale;
    } else {
      out.reconstructed[i] = weights[i] >= 0.0F ? scale : -scale;
    }
  }
  return out;
}

CompressedModel compress_topk_sparsification(std::span<const float> weights,
                                             double keep_ratio) {
  if (keep_ratio <= 0.0 || keep_ratio > 1.0) {
    throw std::invalid_argument(
        "compress_topk_sparsification: keep_ratio must be in (0, 1]");
  }
  const std::size_t keep = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(keep_ratio *
                                               static_cast<double>(weights.size()))));

  // Threshold = |value| of the keep-th largest magnitude.
  std::vector<float> magnitudes(weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) magnitudes[i] = std::abs(weights[i]);
  std::vector<float> sorted = magnitudes;
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(keep - 1),
                   sorted.end(), std::greater<float>());
  const float threshold = sorted[keep - 1];

  CompressedModel out;
  out.reconstructed.assign(weights.size(), 0.0F);
  std::size_t kept = 0;
  // Keep strictly-above first, then fill ties up to `keep` (deterministic
  // by index order).
  for (std::size_t i = 0; i < weights.size() && kept < keep; ++i) {
    if (magnitudes[i] > threshold) {
      out.reconstructed[i] = weights[i];
      ++kept;
    }
  }
  for (std::size_t i = 0; i < weights.size() && kept < keep; ++i) {
    if (magnitudes[i] == threshold && out.reconstructed[i] == 0.0F) {
      out.reconstructed[i] = weights[i];
      ++kept;
    }
  }
  out.wire_bits = kept * 64;  // value (32) + index (32) per survivor
  return out;
}

CompressionKind parse_compression_kind(const std::string& text) {
  if (text == "none") return CompressionKind::kNone;
  if (text == "quantization") return CompressionKind::kQuantization;
  if (text == "sparsification") return CompressionKind::kSparsification;
  throw std::invalid_argument("unknown compression kind: " + text);
}

CompressedModel compress(std::span<const float> weights,
                         const CompressionOptions& options) {
  switch (options.kind) {
    case CompressionKind::kNone:
      return compress_identity(weights);
    case CompressionKind::kQuantization:
      return compress_uniform_quantization(weights, options.quantization_bits);
    case CompressionKind::kSparsification:
      return compress_topk_sparsification(weights, options.sparsify_keep_ratio);
  }
  throw std::invalid_argument("compress: bad kind");
}

}  // namespace helcfl::nn
