// Dense float32 N-dimensional tensor with value semantics.
//
// The NN library (src/nn) works with rank-2 activations [batch, features]
// and rank-4 activations [batch, channels, height, width]; this class keeps
// shape handling generic up to rank 4 so layers stay readable.
#pragma once

#include <cstddef>
#include <string>
#include <initializer_list>
#include <span>
#include <vector>

namespace helcfl::util {
class Rng;
}

namespace helcfl::tensor {

/// Tensor shape: a short list of dimension sizes.  Rank 0 denotes an empty
/// tensor with zero elements.
class Shape {
 public:
  Shape() = default;
  Shape(std::initializer_list<std::size_t> dims) : dims_(dims) {}
  explicit Shape(std::vector<std::size_t> dims) : dims_(std::move(dims)) {}

  std::size_t rank() const { return dims_.size(); }
  std::size_t dim(std::size_t axis) const { return dims_.at(axis); }
  std::size_t operator[](std::size_t axis) const { return dims_[axis]; }

  /// Total number of elements (product of dims; 0 for rank-0).
  std::size_t num_elements() const;

  bool operator==(const Shape& other) const = default;

  const std::vector<std::size_t>& dims() const { return dims_; }

  /// Human-readable form like "[64, 3, 12, 12]".
  std::string to_string() const;

 private:
  std::vector<std::size_t> dims_;
};

/// Owning dense float tensor.  Copyable, movable; copies are deep.
class Tensor {
 public:
  Tensor() = default;
  /// Allocates zero-initialized storage for `shape`.
  explicit Tensor(Shape shape);
  /// Adopts `data`, which must have shape.num_elements() entries.
  Tensor(Shape shape, std::vector<float> data);

  static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }

  const Shape& shape() const { return shape_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  /// Flat element access.
  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  /// Multi-index access with debug-mode bounds checking.
  float& at(std::size_t i0);
  float at(std::size_t i0) const;
  float& at(std::size_t i0, std::size_t i1);
  float at(std::size_t i0, std::size_t i1) const;
  float& at(std::size_t i0, std::size_t i1, std::size_t i2, std::size_t i3);
  float at(std::size_t i0, std::size_t i1, std::size_t i2, std::size_t i3) const;

  std::span<float> data() { return data_; }
  std::span<const float> data() const { return data_; }

  /// Returns a tensor sharing no storage but holding the same data with a
  /// new shape.  Requires identical element count.
  Tensor reshaped(Shape new_shape) const;

  /// Sets every element to `value`.
  void fill(float value);

  /// Fills with N(mean, stddev) draws.
  void fill_normal(util::Rng& rng, float mean, float stddev);

  /// Fills with U[lo, hi) draws.
  void fill_uniform(util::Rng& rng, float lo, float hi);

 private:
  std::size_t flat_index(std::size_t i0, std::size_t i1) const;
  std::size_t flat_index(std::size_t i0, std::size_t i1, std::size_t i2,
                         std::size_t i3) const;

  Shape shape_;
  std::vector<float> data_;
};

}  // namespace helcfl::tensor
