#include "tensor/tensor.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace helcfl::tensor {
namespace {

TEST(Shape, RankAndDims) {
  const Shape s{2, 3, 4};
  EXPECT_EQ(s.rank(), 3u);
  EXPECT_EQ(s[0], 2u);
  EXPECT_EQ(s.dim(1), 3u);
  EXPECT_EQ(s[2], 4u);
}

TEST(Shape, NumElements) {
  EXPECT_EQ(Shape({2, 3, 4}).num_elements(), 24u);
  EXPECT_EQ(Shape({5}).num_elements(), 5u);
  EXPECT_EQ(Shape({}).num_elements(), 0u);
  EXPECT_EQ(Shape({3, 0, 2}).num_elements(), 0u);
}

TEST(Shape, Equality) {
  EXPECT_EQ(Shape({2, 3}), Shape({2, 3}));
  EXPECT_NE(Shape({2, 3}), Shape({3, 2}));
  EXPECT_NE(Shape({2, 3}), Shape({2, 3, 1}));
}

TEST(Shape, ToString) {
  EXPECT_EQ(Shape({64, 3, 12, 12}).to_string(), "[64, 3, 12, 12]");
  EXPECT_EQ(Shape({}).to_string(), "[]");
}

TEST(Tensor, DefaultIsEmpty) {
  const Tensor t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
}

TEST(Tensor, ZeroInitialized) {
  const Tensor t(Shape{3, 4});
  EXPECT_EQ(t.size(), 12u);
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0F);
}

TEST(Tensor, ConstructFromData) {
  const Tensor t(Shape{2, 2}, {1.0F, 2.0F, 3.0F, 4.0F});
  EXPECT_EQ(t.at(0, 0), 1.0F);
  EXPECT_EQ(t.at(0, 1), 2.0F);
  EXPECT_EQ(t.at(1, 0), 3.0F);
  EXPECT_EQ(t.at(1, 1), 4.0F);
}

TEST(Tensor, ConstructSizeMismatchThrows) {
  EXPECT_THROW(Tensor(Shape{2, 2}, {1.0F, 2.0F}), std::invalid_argument);
}

TEST(Tensor, Rank4IndexingIsRowMajor) {
  Tensor t(Shape{2, 3, 4, 5});
  t.at(1, 2, 3, 4) = 9.0F;
  // flat = ((1*3 + 2)*4 + 3)*5 + 4 = 119
  EXPECT_EQ(t[119], 9.0F);
}

TEST(Tensor, Rank2IndexingIsRowMajor) {
  Tensor t(Shape{3, 4});
  t.at(2, 1) = 5.0F;
  EXPECT_EQ(t[9], 5.0F);
}

TEST(Tensor, CopyIsDeep) {
  Tensor a(Shape{2});
  Tensor b = a;
  b[0] = 1.0F;
  EXPECT_EQ(a[0], 0.0F);
}

TEST(Tensor, ReshapedPreservesData) {
  Tensor t(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor r = t.reshaped(Shape{3, 2});
  EXPECT_EQ(r.shape(), Shape({3, 2}));
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(r[i], t[i]);
}

TEST(Tensor, ReshapedBadCountThrows) {
  const Tensor t(Shape{2, 3});
  EXPECT_THROW(t.reshaped(Shape{7}), std::invalid_argument);
}

TEST(Tensor, Fill) {
  Tensor t(Shape{4});
  t.fill(3.0F);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(t[i], 3.0F);
}

TEST(Tensor, FillNormalHasRequestedMoments) {
  util::Rng rng(5);
  Tensor t(Shape{100, 100});
  t.fill_normal(rng, 2.0F, 0.5F);
  double sum = 0.0;
  double sum_sq = 0.0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    sum += t[i];
    sum_sq += static_cast<double>(t[i]) * t[i];
  }
  const double mu = sum / static_cast<double>(t.size());
  const double var = sum_sq / static_cast<double>(t.size()) - mu * mu;
  EXPECT_NEAR(mu, 2.0, 0.02);
  EXPECT_NEAR(var, 0.25, 0.01);
}

TEST(Tensor, FillUniformRespectsBounds) {
  util::Rng rng(6);
  Tensor t(Shape{1000});
  t.fill_uniform(rng, -1.0F, 1.0F);
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_GE(t[i], -1.0F);
    EXPECT_LT(t[i], 1.0F);
  }
}

TEST(Tensor, DataSpanIsWritable) {
  Tensor t(Shape{3});
  auto span = t.data();
  span[1] = 7.0F;
  EXPECT_EQ(t[1], 7.0F);
}

}  // namespace
}  // namespace helcfl::tensor
