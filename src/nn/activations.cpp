#include "nn/activations.h"

#include <cassert>

namespace helcfl::nn {

using tensor::Tensor;

Tensor ReLU::forward(const Tensor& input, bool training) {
  Tensor output = input;
  if (training) mask_ = Tensor(input.shape());
  for (std::size_t i = 0; i < output.size(); ++i) {
    if (output[i] > 0.0F) {
      if (training) mask_[i] = 1.0F;
    } else {
      output[i] = 0.0F;
    }
  }
  return output;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  assert(grad_output.shape() == mask_.shape());
  Tensor grad_input = grad_output;
  for (std::size_t i = 0; i < grad_input.size(); ++i) grad_input[i] *= mask_[i];
  return grad_input;
}

}  // namespace helcfl::nn
