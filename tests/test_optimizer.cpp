#include "nn/optimizer.h"

#include <gtest/gtest.h>

#include <vector>

namespace helcfl::nn {
namespace {

std::vector<ParamRef> make_refs(std::vector<float>& value, std::vector<float>& grad) {
  return {{std::span<float>(value), std::span<float>(grad)}};
}

TEST(Sgd, PlainStepIsEq3) {
  // w <- w - lr * grad, exactly the paper's Eq. (3).
  std::vector<float> w = {1.0F, 2.0F};
  std::vector<float> g = {0.5F, -1.0F};
  Sgd sgd({.learning_rate = 0.1F});
  sgd.step(make_refs(w, g));
  EXPECT_FLOAT_EQ(w[0], 0.95F);
  EXPECT_FLOAT_EQ(w[1], 2.1F);
}

TEST(Sgd, ZeroGradientIsNoOp) {
  std::vector<float> w = {3.0F};
  std::vector<float> g = {0.0F};
  Sgd sgd({.learning_rate = 0.5F});
  sgd.step(make_refs(w, g));
  EXPECT_FLOAT_EQ(w[0], 3.0F);
}

TEST(Sgd, MomentumAccumulatesVelocity) {
  std::vector<float> w = {0.0F};
  std::vector<float> g = {1.0F};
  Sgd sgd({.learning_rate = 1.0F, .momentum = 0.5F});
  sgd.step(make_refs(w, g));  // v = 1, w = -1
  EXPECT_FLOAT_EQ(w[0], -1.0F);
  sgd.step(make_refs(w, g));  // v = 1.5, w = -2.5
  EXPECT_FLOAT_EQ(w[0], -2.5F);
  sgd.step(make_refs(w, g));  // v = 1.75, w = -4.25
  EXPECT_FLOAT_EQ(w[0], -4.25F);
}

TEST(Sgd, MultipleParamTensors) {
  std::vector<float> w1 = {1.0F};
  std::vector<float> g1 = {1.0F};
  std::vector<float> w2 = {2.0F, 3.0F};
  std::vector<float> g2 = {1.0F, 1.0F};
  std::vector<ParamRef> refs = {{std::span<float>(w1), std::span<float>(g1)},
                                {std::span<float>(w2), std::span<float>(g2)}};
  Sgd sgd({.learning_rate = 1.0F});
  sgd.step(refs);
  EXPECT_FLOAT_EQ(w1[0], 0.0F);
  EXPECT_FLOAT_EQ(w2[0], 1.0F);
  EXPECT_FLOAT_EQ(w2[1], 2.0F);
}

TEST(Sgd, MomentumRejectsChangedParamList) {
  std::vector<float> w = {0.0F};
  std::vector<float> g = {1.0F};
  Sgd sgd({.learning_rate = 1.0F, .momentum = 0.5F});
  sgd.step(make_refs(w, g));
  std::vector<float> w2 = {0.0F};
  std::vector<float> g2 = {1.0F};
  std::vector<ParamRef> two = {{std::span<float>(w), std::span<float>(g)},
                               {std::span<float>(w2), std::span<float>(g2)}};
  EXPECT_THROW(sgd.step(two), std::invalid_argument);
}

TEST(Sgd, ConvergesOnQuadratic) {
  // Minimize f(w) = (w - 3)^2; grad = 2(w - 3).
  std::vector<float> w = {0.0F};
  std::vector<float> g = {0.0F};
  Sgd sgd({.learning_rate = 0.1F});
  for (int i = 0; i < 100; ++i) {
    g[0] = 2.0F * (w[0] - 3.0F);
    sgd.step(make_refs(w, g));
  }
  EXPECT_NEAR(w[0], 3.0F, 1e-4F);
}

TEST(Sgd, MomentumConvergesFasterOnIllConditionedQuadratic) {
  auto run = [](float momentum) {
    std::vector<float> w = {10.0F};
    std::vector<float> g = {0.0F};
    Sgd sgd({.learning_rate = 0.02F, .momentum = momentum});
    int steps = 0;
    while (std::abs(w[0]) > 0.01F && steps < 10000) {
      g[0] = 2.0F * w[0];
      sgd.step({{std::span<float>(w), std::span<float>(g)}});
      ++steps;
    }
    return steps;
  };
  EXPECT_LT(run(0.9F), run(0.0F));
}

}  // namespace
}  // namespace helcfl::nn
