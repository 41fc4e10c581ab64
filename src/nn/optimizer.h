// Gradient-descent optimizer over a model's ParamRefs.
#pragma once

#include <vector>

#include "nn/layer.h"

namespace helcfl::nn {

/// Plain SGD with optional momentum.
///
/// With momentum = 0 this is exactly the gradient descent step of the
/// paper's Eq. (3): w <- w - lr * grad.  fl::local_update builds a fresh
/// Sgd for every update, so momentum state never outlives one update.
class Sgd {
 public:
  struct Options {
    float learning_rate = 0.01F;
    float momentum = 0.0F;
  };

  explicit Sgd(Options options) : options_(options) {}

  /// Applies one update step to `params`.  Momentum buffers are keyed by
  /// position, so the same parameter list must be passed on every call.
  void step(const std::vector<ParamRef>& params);

 private:
  Options options_;
  std::vector<std::vector<float>> velocity_;  // one buffer per param tensor
};

}  // namespace helcfl::nn
