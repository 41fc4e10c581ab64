// Model-upload compression (extension; see DESIGN.md §6).
//
// The paper's introduction contrasts user selection against the other
// family of communication-cost reducers — sparsification [5] and
// quantization [6] — noting they "inevitably sacrifice model accuracy or
// introduce additional compression costs".  This module implements both so
// the claim can be measured: compressing a client upload shrinks C_model
// in Eq. (7) (shorter T^com, less E^com) at the price of lossy weights
// entering the FedAvg average.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace helcfl::nn {

/// A compressed parameter vector plus its exact wire size.
struct CompressedModel {
  std::vector<float> reconstructed;  ///< what the server decodes
  std::size_t wire_bits = 0;         ///< serialized size, drives Eq. (7)
};

/// Lossless reference: float32 end to end.
CompressedModel compress_identity(std::span<const float> weights);

/// Uniform symmetric quantization to `bits` bits per weight (1..16).
/// The scale (one float32) is carried per tensor-vector; reconstruction is
/// scale * q with q the signed integer code.  wire_bits =
/// 32 + bits * n.
CompressedModel compress_uniform_quantization(std::span<const float> weights,
                                              unsigned bits);

/// Magnitude top-k sparsification: keeps the `keep_ratio` fraction of
/// largest-magnitude weights, zeroing the rest.  Each survivor costs its
/// float32 value plus a 32-bit index; wire_bits = kept * 64.
CompressedModel compress_topk_sparsification(std::span<const float> weights,
                                             double keep_ratio);

/// Compression back-ends selectable from an experiment config.
enum class CompressionKind {
  kNone,          ///< float32 uploads (the paper's setting)
  kQuantization,  ///< uniform quantization
  kSparsification ///< magnitude top-k
};

CompressionKind parse_compression_kind(const std::string& text);

/// Config + dispatch wrapper.
struct CompressionOptions {
  CompressionKind kind = CompressionKind::kNone;
  unsigned quantization_bits = 8;   ///< used by kQuantization
  double sparsify_keep_ratio = 0.1; ///< used by kSparsification
};

/// Applies the configured compressor.  Throws std::invalid_argument for
/// out-of-range parameters.
CompressedModel compress(std::span<const float> weights,
                         const CompressionOptions& options);

}  // namespace helcfl::nn
