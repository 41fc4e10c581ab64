#include "nn/sequential.h"

#include <gtest/gtest.h>

#include "gradcheck.h"
#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/flatten.h"
#include "nn/serialize.h"
#include "util/rng.h"

namespace helcfl::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;

TEST(Sequential, ChainsLayers) {
  util::Rng rng(1);
  Sequential model;
  model.emplace<Dense>(4, 3, rng);
  model.emplace<ReLU>();
  model.emplace<Dense>(3, 2, rng);
  const Tensor y = model.forward(Tensor(Shape{5, 4}), false);
  EXPECT_EQ(y.shape(), Shape({5, 2}));
  EXPECT_EQ(model.layer_count(), 3u);
}

TEST(Sequential, EmptyModelIsIdentity) {
  Sequential model;
  Tensor x(Shape{2, 2}, {1, 2, 3, 4});
  const Tensor y = model.forward(x, false);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(y[i], x[i]);
}

TEST(Sequential, AddNullThrows) {
  Sequential model;
  EXPECT_THROW(model.add(nullptr), std::invalid_argument);
}

TEST(Sequential, ParamsConcatenateInLayerOrder) {
  util::Rng rng(2);
  Sequential model;
  model.emplace<Dense>(2, 3, rng);  // 6 + 3 params
  model.emplace<Dense>(3, 1, rng);  // 3 + 1 params
  EXPECT_EQ(model.parameter_count(), 13u);
  EXPECT_EQ(model.params().size(), 4u);
}

TEST(Sequential, GradientCheckOfComposition) {
  util::Rng rng(3);
  Sequential model;
  model.emplace<Dense>(4, 5, rng);
  model.emplace<ReLU>();
  model.emplace<Dense>(5, 2, rng);
  testing::check_gradients(model, testing::random_input(Shape{2, 4}, 4));
}

TEST(Sequential, FlattenBridgesConvToDense) {
  util::Rng rng(5);
  Sequential model;
  model.emplace<Flatten>();
  model.emplace<Dense>(2 * 3 * 3, 4, rng);
  const Tensor y = model.forward(Tensor(Shape{2, 2, 3, 3}), false);
  EXPECT_EQ(y.shape(), Shape({2, 4}));
}

TEST(Sequential, ZeroGradReachesAllLayers) {
  util::Rng rng(6);
  Sequential model;
  model.emplace<Dense>(2, 2, rng);
  model.emplace<Dense>(2, 2, rng);
  const Tensor x = testing::random_input(Shape{1, 2}, 7);
  (void)model.forward(x, true);
  Tensor dy(Shape{1, 2});
  dy.fill(1.0F);
  (void)model.backward(dy);
  model.zero_grad();
  for (const float g : extract_gradients(model)) EXPECT_EQ(g, 0.0F);
}

TEST(Sequential, NameListsLayers) {
  util::Rng rng(8);
  Sequential model;
  model.emplace<Dense>(2, 3, rng);
  model.emplace<ReLU>();
  EXPECT_EQ(model.name(), "Sequential[Dense(2->3), ReLU]");
}

TEST(Sequential, LayerAccessor) {
  util::Rng rng(9);
  Sequential model;
  model.emplace<Dense>(2, 3, rng);
  EXPECT_EQ(model.layer(0).name(), "Dense(2->3)");
  EXPECT_THROW(model.layer(1), std::out_of_range);
}

TEST(Flatten, RoundTripsThroughBackward) {
  Flatten flatten;
  const Tensor x = testing::random_input(Shape{2, 3, 4, 5}, 16);
  const Tensor y = flatten.forward(x, true);
  EXPECT_EQ(y.shape(), Shape({2, 60}));
  const Tensor dx = flatten.backward(y);
  EXPECT_EQ(dx.shape(), x.shape());
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(dx[i], x[i]);
}

TEST(Flatten, RejectsRank1) {
  Flatten flatten;
  EXPECT_THROW(flatten.forward(Tensor(Shape{5}), false), std::invalid_argument);
}

}  // namespace
}  // namespace helcfl::nn
