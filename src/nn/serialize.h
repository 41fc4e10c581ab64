// Flat (de)serialization of model parameters.
//
// FedAvg aggregates models as flat weight vectors; these helpers move
// parameters between a live model and a std::vector<float> in a fixed,
// deterministic order (layer order, then tensor order within the layer).
#pragma once

#include <cstddef>
#include <vector>

#include "nn/layer.h"

namespace helcfl::nn {

/// Total number of trainable scalars reachable from `model`.
std::size_t parameter_count(Layer& model);

/// Copies all parameters into one flat vector.
std::vector<float> extract_parameters(Layer& model);

/// Overwrites all parameters from `flat`.  Throws std::invalid_argument if
/// the size does not match parameter_count(model).
void load_parameters(Layer& model, std::span<const float> flat);

/// Copies all parameter *gradients* into one flat vector (same order).
std::vector<float> extract_gradients(Layer& model);

}  // namespace helcfl::nn
