#include "nn/activations.h"

#include <gtest/gtest.h>

#include <cmath>

#include "gradcheck.h"

namespace helcfl::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;

Tensor away_from_kinks(Shape shape, std::uint64_t seed) {
  // Inputs bounded away from 0 so finite differences don't straddle the
  // ReLU kink.
  Tensor x = testing::random_input(std::move(shape), seed);
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (std::abs(x[i]) < 0.05F) x[i] = x[i] < 0.0F ? -0.05F : 0.05F;
  }
  return x;
}

TEST(ReLU, ClampsNegatives) {
  ReLU relu;
  Tensor x(Shape{4}, {-1.0F, 0.0F, 0.5F, 2.0F});
  const Tensor y = relu.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 0.0F);
  EXPECT_FLOAT_EQ(y[1], 0.0F);
  EXPECT_FLOAT_EQ(y[2], 0.5F);
  EXPECT_FLOAT_EQ(y[3], 2.0F);
}

TEST(ReLU, BackwardMasks) {
  ReLU relu;
  Tensor x(Shape{3}, {-1.0F, 1.0F, 2.0F});
  (void)relu.forward(x, true);
  Tensor dy(Shape{3}, {10.0F, 10.0F, 10.0F});
  const Tensor dx = relu.backward(dy);
  EXPECT_FLOAT_EQ(dx[0], 0.0F);
  EXPECT_FLOAT_EQ(dx[1], 10.0F);
  EXPECT_FLOAT_EQ(dx[2], 10.0F);
}

TEST(ReLU, GradientCheck) {
  ReLU relu;
  testing::check_gradients(relu, away_from_kinks(Shape{2, 8}, 1));
}

TEST(ReLU, PreservesShape) {
  ReLU relu;
  const Tensor y = relu.forward(Tensor(Shape{2, 3, 4, 5}), false);
  EXPECT_EQ(y.shape(), Shape({2, 3, 4, 5}));
}

TEST(Activations, StatelessLayersHaveNoParams) {
  ReLU relu;
  EXPECT_TRUE(relu.params().empty());
}

}  // namespace
}  // namespace helcfl::nn
