// Layer abstraction for the from-scratch neural-network library.
//
// Training protocol (single-threaded, as used by the FL client):
//   1. zero_grad()
//   2. y = forward(x, /*training=*/true)   -- caches whatever backward needs
//   3. dx = backward(dy)                   -- accumulates parameter gradients
//   4. optimizer steps over params()
//
// forward(x, /*training=*/false) computes the same output as a training
// pass but may skip caching.
#pragma once

#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace helcfl::nn {

class Layer;

/// Non-owning view of one parameter tensor and its gradient accumulator.
/// Both spans alias storage owned by the layer and remain valid while the
/// layer is alive and not moved.  `owner`, when set, points at the layer
/// whose cached derived state (prepacked weight panels) must be
/// invalidated after writing `value` — nn::Sgd calls
/// owner->mark_weights_dirty() after every step, so a step-then-forward
/// sequence never reads stale panels even without an intervening
/// zero_grad.  Layers with no derived state may leave it null.
struct ParamRef {
  std::span<float> value;
  std::span<float> grad;
  Layer* owner = nullptr;
};

/// Base class for all layers.
class Layer {
 public:
  Layer() = default;
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;
  virtual ~Layer() = default;

  /// Computes the layer output.  When `training` is true the layer caches
  /// the activations needed by backward().
  virtual tensor::Tensor forward(const tensor::Tensor& input, bool training) = 0;

  /// Given dLoss/dOutput, accumulates parameter gradients and returns
  /// dLoss/dInput.  Must be called after a training-mode forward().
  virtual tensor::Tensor backward(const tensor::Tensor& grad_output) = 0;

  /// Trainable parameters (empty for stateless layers).
  virtual std::vector<ParamRef> params() { return {}; }

  /// Deep copy of this layer, including parameters.  The parallel trainer
  /// clones one model replica per worker thread so concurrent clients never
  /// share layer storage.
  /// Layers that cannot be replicated may keep the throwing default, but
  /// every layer shipped in src/nn overrides it.
  virtual std::unique_ptr<Layer> clone() const {
    throw std::logic_error(name() + ": clone() not supported");
  }

  /// No layer in src/nn holds non-trainable state and nothing in src/
  /// calls this.  It stays declared only because perfbench/fl_workload.cpp's
  /// TimedLayer wrapper overrides it.
  virtual std::vector<std::span<float>> state_buffers() { return {}; }

  /// Invalidates any cached derived form of this layer's parameters — the
  /// prepacked GEMM weight panels of Dense/Conv2D (tensor::PackedWeights).
  /// Contract: every code path that writes parameter storage must reach
  /// this before the next forward().  The standard mutation paths do so
  /// automatically: nn::load_parameters() calls it, nn::Sgd calls it
  /// through ParamRef::owner after every step, and zero_grad() calls it as
  /// a belt-and-braces sweep at the top of each training iteration.  Code
  /// that pokes params() spans directly — e.g. a finite-difference
  /// gradcheck — must call it explicitly.  Containers broadcast to their
  /// children; leaf layers without derived state keep the no-op default.
  virtual void mark_weights_dirty() {}

  /// Clears all gradient accumulators (and, per the contract above,
  /// invalidates cached weight panels — by this point in the training
  /// protocol the optimizer may have stepped the parameters).
  void zero_grad() {
    mark_weights_dirty();
    for (auto& p : params()) {
      for (auto& g : p.grad) g = 0.0F;
    }
  }

  /// Diagnostic name, e.g. "Dense(192->64)".
  virtual std::string name() const = 0;
};

}  // namespace helcfl::nn
