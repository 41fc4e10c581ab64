#include "nn/sequential.h"

#include <stdexcept>

namespace helcfl::nn {

using tensor::Tensor;

Sequential::Sequential(const Sequential& other) : Layer() {
  layers_.reserve(other.layers_.size());
  for (const auto& layer : other.layers_) layers_.push_back(layer->clone());
}

void Sequential::add(std::unique_ptr<Layer> layer) {
  if (!layer) throw std::invalid_argument("Sequential::add: null layer");
  layers_.push_back(std::move(layer));
}

Tensor Sequential::forward(const Tensor& input, bool training) {
  Tensor activation = input;
  for (auto& layer : layers_) activation = layer->forward(activation, training);
  return activation;
}

Tensor Sequential::backward(const Tensor& grad_output) {
  Tensor grad = grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    grad = (*it)->backward(grad);
  }
  return grad;
}

std::vector<ParamRef> Sequential::params() {
  std::vector<ParamRef> all;
  for (auto& layer : layers_) {
    for (auto& p : layer->params()) all.push_back(p);
  }
  return all;
}

std::unique_ptr<Layer> Sequential::clone() const {
  return std::make_unique<Sequential>(*this);
}

std::string Sequential::name() const {
  std::string out = "Sequential[";
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (i > 0) out += ", ";
    out += layers_[i]->name();
  }
  out += "]";
  return out;
}

std::size_t Sequential::parameter_count() {
  std::size_t total = 0;
  for (const auto& p : params()) total += p.value.size();
  return total;
}

}  // namespace helcfl::nn
