// Sequential container: a model is an ordered list of layers.
#pragma once

#include <memory>
#include <vector>

#include "nn/layer.h"

namespace helcfl::nn {

class Sequential : public Layer {
 public:
  Sequential() = default;

  /// Deep copy: clones every layer.  The parallel trainer copy-constructs
  /// one replica per worker thread from the global model.
  Sequential(const Sequential& other);

  /// Appends a layer (takes ownership).
  void add(std::unique_ptr<Layer> layer);

  /// Constructs and appends a layer in place.
  template <typename L, typename... Args>
  L& emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    add(std::move(layer));
    return ref;
  }

  tensor::Tensor forward(const tensor::Tensor& input, bool training) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  std::vector<ParamRef> params() override;
  std::unique_ptr<Layer> clone() const override;
  void mark_weights_dirty() override {
    for (auto& layer : layers_) layer->mark_weights_dirty();
  }
  std::string name() const override;

  std::size_t layer_count() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_.at(i); }

  /// Total number of trainable scalars.
  std::size_t parameter_count();

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace helcfl::nn
