#include "nn/serialize.h"

#include <gtest/gtest.h>

#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/sequential.h"
#include "util/rng.h"

namespace helcfl::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;

std::unique_ptr<Sequential> make_two_layer(util::Rng& rng) {
  auto model = std::make_unique<Sequential>();
  model->emplace<Dense>(3, 4, rng);
  model->emplace<ReLU>();
  model->emplace<Dense>(4, 2, rng);
  return model;
}

TEST(Serialize, ParameterCount) {
  util::Rng rng(1);
  auto model_ptr = make_two_layer(rng);
  Sequential& model = *model_ptr;
  EXPECT_EQ(parameter_count(model), (3u * 4 + 4) + (4u * 2 + 2));
}

TEST(Serialize, ExtractLoadRoundTrip) {
  util::Rng rng(2);
  auto model_ptr = make_two_layer(rng);
  Sequential& model = *model_ptr;
  const std::vector<float> original = extract_parameters(model);

  std::vector<float> perturbed = original;
  for (auto& w : perturbed) w += 1.0F;
  load_parameters(model, perturbed);
  EXPECT_EQ(extract_parameters(model), perturbed);

  load_parameters(model, original);
  EXPECT_EQ(extract_parameters(model), original);
}

TEST(Serialize, LoadChangesForwardOutput) {
  util::Rng rng(3);
  auto model_ptr = make_two_layer(rng);
  Sequential& model = *model_ptr;
  const Tensor x(Shape{1, 3}, {1.0F, -0.5F, 2.0F});
  const Tensor y_before = model.forward(x, false);

  std::vector<float> zeros(parameter_count(model), 0.0F);
  load_parameters(model, zeros);
  const Tensor y_after = model.forward(x, false);
  for (std::size_t i = 0; i < y_after.size(); ++i) EXPECT_EQ(y_after[i], 0.0F);
  (void)y_before;
}

TEST(Serialize, LoadRejectsWrongSize) {
  util::Rng rng(4);
  auto model_ptr = make_two_layer(rng);
  Sequential& model = *model_ptr;
  std::vector<float> wrong(parameter_count(model) + 1, 0.0F);
  EXPECT_THROW(load_parameters(model, wrong), std::invalid_argument);
}

TEST(Serialize, ExtractGradientsMatchesLayout) {
  util::Rng rng(5);
  auto model_ptr = make_two_layer(rng);
  Sequential& model = *model_ptr;
  model.zero_grad();
  const std::vector<float> grads = extract_gradients(model);
  EXPECT_EQ(grads.size(), parameter_count(model));
  for (const float g : grads) EXPECT_EQ(g, 0.0F);
}

TEST(Serialize, StatelessModelHasZeroParameters) {
  Sequential model;
  model.emplace<ReLU>();
  EXPECT_EQ(parameter_count(model), 0u);
  EXPECT_TRUE(extract_parameters(model).empty());
  load_parameters(model, std::span<const float>{});  // must not throw
}

TEST(Serialize, TwoModelsWithSameWeightsAgree) {
  util::Rng rng1(7);
  util::Rng rng2(8);
  auto a_ptr = make_two_layer(rng1);
  auto b_ptr = make_two_layer(rng2);
  Sequential& a = *a_ptr;
  Sequential& b = *b_ptr;
  load_parameters(b, extract_parameters(a));
  const Tensor x(Shape{2, 3}, {1, 2, 3, -1, 0, 1});
  const Tensor ya = a.forward(x, false);
  const Tensor yb = b.forward(x, false);
  for (std::size_t i = 0; i < ya.size(); ++i) EXPECT_EQ(ya[i], yb[i]);
}

}  // namespace
}  // namespace helcfl::nn
