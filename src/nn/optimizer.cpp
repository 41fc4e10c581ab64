#include "nn/optimizer.h"

#include <cassert>
#include <stdexcept>

namespace helcfl::nn {

void Sgd::step(const std::vector<ParamRef>& params) {
  const bool use_momentum = options_.momentum != 0.0F;
  if (use_momentum) {
    if (velocity_.empty()) {
      velocity_.resize(params.size());
      for (std::size_t i = 0; i < params.size(); ++i) {
        velocity_[i].assign(params[i].value.size(), 0.0F);
      }
    } else if (velocity_.size() != params.size()) {
      throw std::invalid_argument("Sgd::step: parameter list changed size");
    }
  }

  for (std::size_t i = 0; i < params.size(); ++i) {
    auto value = params[i].value;
    auto grad = params[i].grad;
    assert(value.size() == grad.size());
    for (std::size_t j = 0; j < value.size(); ++j) {
      float g = grad[j];
      if (use_momentum) {
        auto& v = velocity_[i];
        assert(v.size() == value.size());
        v[j] = options_.momentum * v[j] + g;
        g = v[j];
      }
      value[j] -= options_.learning_rate * g;
    }
  }
  // The step rewrote parameter storage behind the owning layers' backs;
  // invalidate their prepacked weight panels (nn/layer.h contract).
  for (const auto& p : params) {
    if (p.owner != nullptr) p.owner->mark_weights_dirty();
  }
}

}  // namespace helcfl::nn
