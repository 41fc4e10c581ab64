#include "tensor/ops.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "util/rng.h"

namespace helcfl::tensor {
namespace {

TEST(Ops, AddInplace) {
  std::vector<float> y = {1, 2, 3};
  const std::vector<float> x = {10, 20, 30};
  add_inplace(y, x);
  EXPECT_EQ(y, (std::vector<float>{11, 22, 33}));
}

TEST(Ops, GemmIdentity) {
  // A * I = A
  const std::vector<float> a = {1, 2, 3, 4, 5, 6};          // 2x3
  const std::vector<float> eye = {1, 0, 0, 0, 1, 0, 0, 0, 1};  // 3x3
  std::vector<float> c(6, -1.0F);
  gemm(2, 3, 3, a, eye, c);
  EXPECT_EQ(c, a);
}

TEST(Ops, GemmKnownProduct) {
  const std::vector<float> a = {1, 2, 3, 4};  // 2x2
  const std::vector<float> b = {5, 6, 7, 8};  // 2x2
  std::vector<float> c(4);
  gemm(2, 2, 2, a, b, c);
  EXPECT_EQ(c, (std::vector<float>{19, 22, 43, 50}));
}

TEST(Ops, GemmOverwritesOutput) {
  const std::vector<float> a = {1};
  const std::vector<float> b = {2};
  std::vector<float> c = {100};
  gemm(1, 1, 1, a, b, c);
  EXPECT_EQ(c[0], 2.0F);
}

TEST(Ops, GemmAtBMatchesExplicitTranspose) {
  util::Rng rng(1);
  const std::size_t m = 4, k = 5, n = 3;
  std::vector<float> a_t(k * m);  // stores A as [k, m]; logical A^T is [m, k]... A^T[m,k] where A is [k,m]
  std::vector<float> b(k * n);
  for (auto& v : a_t) v = static_cast<float>(rng.normal());
  for (auto& v : b) v = static_cast<float>(rng.normal());

  // Reference: build A_explicit[m, k] with A_explicit[i][kk] = a_t[kk*m + i].
  std::vector<float> a_explicit(m * k);
  for (std::size_t kk = 0; kk < k; ++kk) {
    for (std::size_t i = 0; i < m; ++i) a_explicit[i * k + kk] = a_t[kk * m + i];
  }
  std::vector<float> expected(m * n);
  gemm(m, k, n, a_explicit, b, expected);

  std::vector<float> actual(m * n);
  gemm_at_b(m, k, n, a_t, b, actual);
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_NEAR(actual[i], expected[i], 1e-5F);
  }
}

TEST(Ops, GemmABtMatchesExplicitTranspose) {
  util::Rng rng(2);
  const std::size_t m = 3, k = 4, n = 5;
  std::vector<float> a(m * k);
  std::vector<float> b_t(n * k);  // B stored as [n, k]; logical B is [k, n]
  for (auto& v : a) v = static_cast<float>(rng.normal());
  for (auto& v : b_t) v = static_cast<float>(rng.normal());

  std::vector<float> b_explicit(k * n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t kk = 0; kk < k; ++kk) b_explicit[kk * n + j] = b_t[j * k + kk];
  }
  std::vector<float> expected(m * n);
  gemm(m, k, n, a, b_explicit, expected);

  std::vector<float> actual(m * n);
  gemm_a_bt(m, k, n, a, b_t, actual);
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_NEAR(actual[i], expected[i], 1e-5F);
  }
}

// ---------------------------------------------------------------------------
// Blocked-kernel validation: every GEMM variant against a naive reference,
// over shape sweeps that cross the micro-tile boundaries (generic 4x8,
// AVX2 6x16), plus the k=0 / m=1 / n=1 degenerate cases and checks that
// the kernels neither modify their inputs nor behave differently on a
// second identical call (bitwise determinism).

struct GemmCase {
  std::size_t m, k, n;
};

// Crosses both micro-tile geometries (4x8 and 6x16), the k-block boundary
// at 256, and the degenerate edges, including empty products (m = 0 and
// n = 0: C has no elements to write).
const GemmCase kSweep[] = {
    {1, 1, 1},   {1, 0, 1},    {1, 5, 1},    {1, 7, 23},  {2, 3, 2},
    {4, 8, 8},   {5, 9, 17},   {6, 16, 16},  {7, 17, 15}, {8, 300, 9},
    {13, 31, 29}, {16, 257, 33}, {31, 64, 1}, {64, 64, 64}, {97, 5, 41},
    {0, 5, 3},   {3, 5, 0},
};

/// Naive double-precision reference for C = op(A)*op(B) [+ C0] [+ bias].
std::vector<float> reference_gemm(const GemmCase& c, std::span<const float> a,
                                  std::span<const float> b, bool trans_a,
                                  bool trans_b, const std::vector<float>* c0,
                                  const std::vector<float>* bias_rows,
                                  const std::vector<float>* bias_cols) {
  std::vector<float> out(c.m * c.n);
  for (std::size_t i = 0; i < c.m; ++i) {
    for (std::size_t j = 0; j < c.n; ++j) {
      double sum = 0.0;
      if (c0 != nullptr) sum = (*c0)[i * c.n + j];
      if (bias_rows != nullptr) sum += (*bias_rows)[i];
      if (bias_cols != nullptr) sum += (*bias_cols)[j];
      for (std::size_t kk = 0; kk < c.k; ++kk) {
        const float av = trans_a ? a[kk * c.m + i] : a[i * c.k + kk];
        const float bv = trans_b ? b[j * c.k + kk] : b[kk * c.n + j];
        sum += static_cast<double>(av) * bv;
      }
      out[i * c.n + j] = static_cast<float>(sum);
    }
  }
  return out;
}

std::vector<float> random_vec(std::size_t size, util::Rng& rng) {
  std::vector<float> v(size);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

/// Error budget: float accumulation over k terms of N(0,1) products.
double tolerance_for(std::size_t k) {
  return 1e-5 * (std::sqrt(static_cast<double>(k)) + 1.0) * 8.0;
}

void expect_near_all(std::span<const float> actual, std::span<const float> expected,
                     double tol, const char* label, const GemmCase& c) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    ASSERT_NEAR(actual[i], expected[i], tol)
        << label << " mismatch at " << i << " for m=" << c.m << " k=" << c.k
        << " n=" << c.n;
  }
}

TEST(OpsKernel, AllVariantsMatchNaiveReferenceAcrossShapeSweep) {
  util::Rng rng(0xBEEF);
  for (const GemmCase& c : kSweep) {
    const double tol = tolerance_for(c.k);
    const std::vector<float> a = random_vec(c.m * c.k, rng);       // [m,k]
    const std::vector<float> a_t = random_vec(c.k * c.m, rng);     // [k,m]
    const std::vector<float> b = random_vec(c.k * c.n, rng);       // [k,n]
    const std::vector<float> b_t = random_vec(c.n * c.k, rng);     // [n,k]
    const std::vector<float> bias_m = random_vec(c.m, rng);
    const std::vector<float> bias_n = random_vec(c.n, rng);
    const std::vector<float> seed_c = random_vec(c.m * c.n, rng);

    // Inputs must come back bit-identical: the kernels only read A/B.
    const auto a_copy = a;
    const auto b_copy = b;

    std::vector<float> out(c.m * c.n, -7.0F);
    gemm(c.m, c.k, c.n, a, b, out);
    expect_near_all(out, reference_gemm(c, a, b, false, false, nullptr, nullptr, nullptr),
                    tol, "gemm", c);

    std::vector<float> with_bias(c.m * c.n, -7.0F);
    gemm_bias_rows(c.m, c.k, c.n, a, b, bias_m, with_bias);
    expect_near_all(with_bias,
                    reference_gemm(c, a, b, false, false, nullptr, &bias_m, nullptr),
                    tol, "gemm_bias_rows", c);

    std::vector<float> at_b(c.m * c.n, -7.0F);
    gemm_at_b(c.m, c.k, c.n, a_t, b, at_b);
    expect_near_all(at_b, reference_gemm(c, a_t, b, true, false, nullptr, nullptr, nullptr),
                    tol, "gemm_at_b", c);

    std::vector<float> at_b_acc = seed_c;
    gemm_at_b_accumulate(c.m, c.k, c.n, a_t, b, at_b_acc);
    expect_near_all(at_b_acc,
                    reference_gemm(c, a_t, b, true, false, &seed_c, nullptr, nullptr),
                    tol, "gemm_at_b_accumulate", c);

    std::vector<float> a_bt(c.m * c.n, -7.0F);
    gemm_a_bt(c.m, c.k, c.n, a, b_t, a_bt);
    expect_near_all(a_bt, reference_gemm(c, a, b_t, false, true, nullptr, nullptr, nullptr),
                    tol, "gemm_a_bt", c);

    std::vector<float> a_bt_acc = seed_c;
    gemm_a_bt_accumulate(c.m, c.k, c.n, a, b_t, a_bt_acc);
    expect_near_all(a_bt_acc,
                    reference_gemm(c, a, b_t, false, true, &seed_c, nullptr, nullptr),
                    tol, "gemm_a_bt_accumulate", c);

    std::vector<float> a_bt_bias(c.m * c.n, -7.0F);
    gemm_a_bt_bias_cols(c.m, c.k, c.n, a, b_t, bias_n, a_bt_bias);
    expect_near_all(a_bt_bias,
                    reference_gemm(c, a, b_t, false, true, nullptr, nullptr, &bias_n),
                    tol, "gemm_a_bt_bias_cols", c);

    EXPECT_EQ(a, a_copy) << "gemm kernels must not modify A";
    EXPECT_EQ(b, b_copy) << "gemm kernels must not modify B";

    // Bitwise determinism: an identical second call reproduces every bit.
    std::vector<float> out2(c.m * c.n, 3.0F);
    gemm(c.m, c.k, c.n, a, b, out2);
    EXPECT_EQ(out, out2) << "gemm must be bitwise deterministic";
  }
}

TEST(OpsKernel, KZeroOverwritesWithZeroOrBias) {
  const std::vector<float> empty;
  const std::vector<float> bias = {5.0F, -1.0F};
  std::vector<float> c = {9.0F, 9.0F, 9.0F, 9.0F};
  gemm(2, 0, 2, empty, empty, c);
  EXPECT_EQ(c, (std::vector<float>{0, 0, 0, 0}));

  c = {9.0F, 9.0F, 9.0F, 9.0F};
  gemm_bias_rows(2, 0, 2, empty, empty, bias, c);
  EXPECT_EQ(c, (std::vector<float>{5.0F, 5.0F, -1.0F, -1.0F}));

  c = {9.0F, 9.0F, 9.0F, 9.0F};
  gemm_a_bt_bias_cols(2, 0, 2, empty, empty, bias, c);
  EXPECT_EQ(c, (std::vector<float>{5.0F, -1.0F, 5.0F, -1.0F}));
}

TEST(OpsKernel, KernelIsaIsReported) {
  const std::string_view isa = kernel_isa();
  EXPECT_TRUE(isa == "generic" || isa == "avx2_fma" || isa == "avx512") << isa;
}

TEST(OpsKernel, ScratchIsReusedInSteadyState) {
  util::Rng rng(0xFEED);
  const std::size_t m = 48, k = 96, n = 56;
  const std::vector<float> a = random_vec(m * k, rng);
  const std::vector<float> b = random_vec(k * n, rng);
  std::vector<float> c(m * n);
  gemm(m, k, n, a, b, c);  // warm the packing buffers for this shape
  const std::uint64_t before = scratch_realloc_count();
  for (int i = 0; i < 5; ++i) gemm(m, k, n, a, b, c);
  EXPECT_EQ(scratch_realloc_count(), before)
      << "steady-state gemm must not grow scratch";
}

}  // namespace
}  // namespace helcfl::tensor
