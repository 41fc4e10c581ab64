// Elementwise activation layers.
#pragma once

#include "nn/layer.h"

namespace helcfl::nn {

/// Rectified linear unit, y = max(0, x).
class ReLU : public Layer {
 public:
  tensor::Tensor forward(const tensor::Tensor& input, bool training) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  std::unique_ptr<Layer> clone() const override { return std::make_unique<ReLU>(); }
  std::string name() const override { return "ReLU"; }

 private:
  tensor::Tensor mask_;  // 1 where input > 0
};

}  // namespace helcfl::nn
