#include "tensor/tensor.h"

#include <cassert>
#include <stdexcept>
#include <string>

#include "util/rng.h"

namespace helcfl::tensor {

std::size_t Shape::num_elements() const {
  if (dims_.empty()) return 0;
  std::size_t total = 1;
  for (const std::size_t d : dims_) total *= d;
  return total;
}

std::string Shape::to_string() const {
  std::string out = "[";
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(dims_[i]);
  }
  out += "]";
  return out;
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)), data_(shape_.num_elements(), 0.0F) {}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  if (data_.size() != shape_.num_elements()) {
    throw std::invalid_argument("Tensor: data size " + std::to_string(data_.size()) +
                                " does not match shape " + shape_.to_string());
  }
}

float& Tensor::at(std::size_t i0) {
  assert(shape_.rank() == 1 && i0 < shape_[0]);
  return data_[i0];
}

float Tensor::at(std::size_t i0) const {
  assert(shape_.rank() == 1 && i0 < shape_[0]);
  return data_[i0];
}

std::size_t Tensor::flat_index(std::size_t i0, std::size_t i1) const {
  assert(shape_.rank() == 2);
  assert(i0 < shape_[0] && i1 < shape_[1]);
  return i0 * shape_[1] + i1;
}

std::size_t Tensor::flat_index(std::size_t i0, std::size_t i1, std::size_t i2,
                               std::size_t i3) const {
  assert(shape_.rank() == 4);
  assert(i0 < shape_[0] && i1 < shape_[1] && i2 < shape_[2] && i3 < shape_[3]);
  return ((i0 * shape_[1] + i1) * shape_[2] + i2) * shape_[3] + i3;
}

float& Tensor::at(std::size_t i0, std::size_t i1) { return data_[flat_index(i0, i1)]; }

float Tensor::at(std::size_t i0, std::size_t i1) const {
  return data_[flat_index(i0, i1)];
}

float& Tensor::at(std::size_t i0, std::size_t i1, std::size_t i2, std::size_t i3) {
  return data_[flat_index(i0, i1, i2, i3)];
}

float Tensor::at(std::size_t i0, std::size_t i1, std::size_t i2, std::size_t i3) const {
  return data_[flat_index(i0, i1, i2, i3)];
}

Tensor Tensor::reshaped(Shape new_shape) const {
  if (new_shape.num_elements() != data_.size()) {
    throw std::invalid_argument("Tensor::reshaped: element count mismatch (" +
                                shape_.to_string() + " -> " + new_shape.to_string() +
                                ")");
  }
  return Tensor(std::move(new_shape), data_);
}

void Tensor::fill(float value) {
  for (auto& v : data_) v = value;
}

void Tensor::fill_normal(util::Rng& rng, float mean, float stddev) {
  for (auto& v : data_) v = static_cast<float>(rng.normal(mean, stddev));
}

void Tensor::fill_uniform(util::Rng& rng, float lo, float hi) {
  for (auto& v : data_) v = static_cast<float>(rng.uniform(lo, hi));
}

}  // namespace helcfl::tensor
