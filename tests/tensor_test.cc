#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"

namespace vgod {
namespace {

namespace k = ::vgod::kernels;

TEST(TensorTest, DefaultIsUndefined) {
  Tensor t;
  EXPECT_FALSE(t.defined());
  EXPECT_EQ(t.rows(), 0);
  EXPECT_EQ(t.cols(), 0);
}

TEST(TensorTest, ZerosOnesFull) {
  Tensor z = Tensor::Zeros(2, 3);
  Tensor o = Tensor::Ones(2, 3);
  Tensor f = Tensor::Full(2, 3, 2.5f);
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 3; ++j) {
      EXPECT_EQ(z.At(i, j), 0.0f);
      EXPECT_EQ(o.At(i, j), 1.0f);
      EXPECT_EQ(f.At(i, j), 2.5f);
    }
  }
}

TEST(TensorTest, FromVectorRowMajor) {
  Tensor t = Tensor::FromVector({1, 2, 3, 4, 5, 6}, 2, 3);
  EXPECT_EQ(t.At(0, 0), 1.0f);
  EXPECT_EQ(t.At(0, 2), 3.0f);
  EXPECT_EQ(t.At(1, 0), 4.0f);
  EXPECT_EQ(t.At(1, 2), 6.0f);
}

TEST(TensorTest, CopySharesStorageCloneDoesNot) {
  Tensor a = Tensor::Zeros(2, 2);
  Tensor shared = a;
  Tensor cloned = a.Clone();
  a.SetAt(0, 0, 9.0f);
  EXPECT_EQ(shared.At(0, 0), 9.0f);
  EXPECT_EQ(cloned.At(0, 0), 0.0f);
}

TEST(TensorTest, ReshapedSharesStorage) {
  Tensor a = Tensor::FromVector({1, 2, 3, 4, 5, 6}, 2, 3);
  Tensor b = a.Reshaped(3, 2);
  EXPECT_EQ(b.At(1, 0), 3.0f);
  a.SetAt(0, 0, 42.0f);
  EXPECT_EQ(b.At(0, 0), 42.0f);
}

TEST(TensorDeathTest, ReshapedRejectsSizeMismatch) {
  Tensor a = Tensor::Zeros(2, 3);
  EXPECT_DEATH(a.Reshaped(4, 2), "check failed");
}

TEST(TensorDeathTest, AtBoundsChecked) {
  Tensor a = Tensor::Zeros(2, 3);
  EXPECT_DEATH(a.At(2, 0), "check failed");
  EXPECT_DEATH(a.At(0, 3), "check failed");
}

TEST(TensorTest, ScalarValue) {
  EXPECT_FLOAT_EQ(Tensor::Scalar(3.25f).ScalarValue(), 3.25f);
}

TEST(TensorTest, CopyFromMatchingShape) {
  Tensor a = Tensor::Zeros(2, 2);
  Tensor b = Tensor::Full(2, 2, 7.0f);
  a.CopyFrom(b);
  EXPECT_EQ(a.At(1, 1), 7.0f);
}

TEST(TensorTest, RandomUniformWithinBounds) {
  Rng rng(3);
  Tensor t = Tensor::RandomUniform(20, 20, -2.0f, 2.0f, &rng);
  for (int64_t i = 0; i < t.size(); ++i) {
    EXPECT_GE(t.data()[i], -2.0f);
    EXPECT_LT(t.data()[i], 2.0f);
  }
}

TEST(TensorTest, ToStringShowsShape) {
  EXPECT_NE(Tensor::Zeros(3, 4).ToString().find("[3 x 4]"), std::string::npos);
}

// --- Kernels ---

TEST(KernelsTest, MatMulMatchesHandComputed) {
  Tensor a = Tensor::FromVector({1, 2, 3, 4}, 2, 2);
  Tensor b = Tensor::FromVector({5, 6, 7, 8}, 2, 2);
  Tensor c = k::MatMul(a, b);
  EXPECT_FLOAT_EQ(c.At(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c.At(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(c.At(1, 0), 43.0f);
  EXPECT_FLOAT_EQ(c.At(1, 1), 50.0f);
}

TEST(KernelsTest, MatMulVariantsAgree) {
  Rng rng(5);
  Tensor a = Tensor::RandomNormal(7, 4, 0, 1, &rng);
  Tensor b = Tensor::RandomNormal(4, 6, 0, 1, &rng);
  Tensor reference = k::MatMul(a, b);
  // A * B == A * (B^T)^T via MatMulNT and == ((A^T)^T) * B via MatMulTN.
  EXPECT_LT(k::MaxAbsDiff(reference, k::MatMulNT(a, k::Transpose(b))), 1e-4f);
  EXPECT_LT(k::MaxAbsDiff(reference, k::MatMulTN(k::Transpose(a), b)), 1e-4f);
}

TEST(KernelsTest, TransposeInvolution) {
  Rng rng(7);
  Tensor a = Tensor::RandomNormal(5, 9, 0, 1, &rng);
  EXPECT_EQ(k::MaxAbsDiff(a, k::Transpose(k::Transpose(a))), 0.0f);
}

TEST(KernelsTest, ElementwiseOps) {
  Tensor a = Tensor::FromVector({1, -2, 3, -4}, 2, 2);
  Tensor b = Tensor::FromVector({2, 2, 2, 2}, 2, 2);
  EXPECT_FLOAT_EQ(k::Add(a, b).At(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(k::Sub(a, b).At(0, 0), -1.0f);
  EXPECT_FLOAT_EQ(k::Mul(a, b).At(1, 0), 6.0f);
  EXPECT_FLOAT_EQ(k::Scale(a, -1.0f).At(1, 1), 4.0f);
  EXPECT_FLOAT_EQ(k::Abs(a).At(0, 1), 2.0f);
  EXPECT_FLOAT_EQ(k::Square(a).At(1, 1), 16.0f);
}

TEST(KernelsTest, ActivationValues) {
  Tensor x = Tensor::FromVector({-1.0f, 0.0f, 2.0f}, 1, 3);
  Tensor relu = k::Relu(x);
  EXPECT_FLOAT_EQ(relu.At(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(relu.At(0, 2), 2.0f);
  Tensor leaky = k::LeakyRelu(x, 0.1f);
  EXPECT_FLOAT_EQ(leaky.At(0, 0), -0.1f);
  EXPECT_FLOAT_EQ(leaky.At(0, 2), 2.0f);
  Tensor sig = k::Sigmoid(x);
  EXPECT_NEAR(sig.At(0, 1), 0.5f, 1e-6f);
  EXPECT_NEAR(sig.At(0, 0), 1.0f / (1.0f + std::exp(1.0f)), 1e-6f);
  Tensor tanh = k::Tanh(x);
  EXPECT_NEAR(tanh.At(0, 2), std::tanh(2.0f), 1e-6f);
}

TEST(KernelsTest, SigmoidStableAtExtremes) {
  Tensor x = Tensor::FromVector({-100.0f, 100.0f}, 1, 2);
  Tensor sig = k::Sigmoid(x);
  EXPECT_NEAR(sig.At(0, 0), 0.0f, 1e-6f);
  EXPECT_NEAR(sig.At(0, 1), 1.0f, 1e-6f);
}

TEST(KernelsTest, AddRowVectorBroadcasts) {
  Tensor a = Tensor::Zeros(3, 2);
  Tensor row = Tensor::FromVector({1, 2}, 1, 2);
  Tensor out = k::AddRowVector(a, row);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FLOAT_EQ(out.At(i, 0), 1.0f);
    EXPECT_FLOAT_EQ(out.At(i, 1), 2.0f);
  }
}

TEST(KernelsTest, InPlaceOps) {
  Tensor a = Tensor::Ones(2, 2);
  k::AddInPlace(&a, Tensor::Ones(2, 2));
  EXPECT_FLOAT_EQ(a.At(0, 0), 2.0f);
  k::AxpyInPlace(&a, 3.0f, Tensor::Ones(2, 2));
  EXPECT_FLOAT_EQ(a.At(1, 1), 5.0f);
  k::ScaleInPlace(&a, 0.5f);
  EXPECT_FLOAT_EQ(a.At(0, 1), 2.5f);
}

TEST(KernelsTest, Reductions) {
  Tensor a = Tensor::FromVector({1, 2, 3, 4, 5, 6}, 2, 3);
  EXPECT_FLOAT_EQ(k::SumAll(a).ScalarValue(), 21.0f);
  Tensor row_sums = k::RowSums(a);
  EXPECT_FLOAT_EQ(row_sums.At(0, 0), 6.0f);
  EXPECT_FLOAT_EQ(row_sums.At(1, 0), 15.0f);
  Tensor col_sums = k::ColSums(a);
  EXPECT_FLOAT_EQ(col_sums.At(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(col_sums.At(0, 2), 9.0f);
  EXPECT_DOUBLE_EQ(k::MeanValue(a), 3.5);
  EXPECT_NEAR(k::StdValue(a), std::sqrt(35.0 / 12.0), 1e-6);
}

TEST(KernelsTest, RowNormsAndNormalize) {
  Tensor a = Tensor::FromVector({3, 4, 0, 0}, 2, 2);
  Tensor norms = k::RowNorms(a);
  EXPECT_FLOAT_EQ(norms.At(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(norms.At(1, 0), 0.0f);
  Tensor normalized = k::RowL2Normalize(a, 1e-12f);
  EXPECT_FLOAT_EQ(normalized.At(0, 0), 0.6f);
  EXPECT_FLOAT_EQ(normalized.At(0, 1), 0.8f);
  // Zero rows stay zero rather than producing NaN.
  EXPECT_FLOAT_EQ(normalized.At(1, 0), 0.0f);
}

TEST(KernelsTest, RowSquaredDistance) {
  Tensor a = Tensor::FromVector({1, 2, 3, 4}, 2, 2);
  Tensor b = Tensor::FromVector({0, 0, 3, 2}, 2, 2);
  Tensor d = k::RowSquaredDistance(a, b);
  EXPECT_FLOAT_EQ(d.At(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(d.At(1, 0), 4.0f);
}

TEST(KernelsTest, MatMulSkipsZerosCorrectly) {
  // The sparse-input fast path must not change results.
  Rng rng(11);
  Tensor a = Tensor::RandomNormal(6, 8, 0, 1, &rng);
  for (int64_t i = 0; i < a.size(); i += 3) a.data()[i] = 0.0f;
  Tensor b = Tensor::RandomNormal(8, 5, 0, 1, &rng);
  Tensor fast = k::MatMul(a, b);
  // Reference via transpose identity.
  Tensor reference = k::Transpose(k::MatMulTN(b, k::Transpose(a)));
  EXPECT_LT(k::MaxAbsDiff(fast, reference), 1e-4f);
}

// Element-by-element transpose, independent of the kernels under test.
Tensor NaiveTranspose(const Tensor& x) {
  Tensor out(x.cols(), x.rows());
  for (int i = 0; i < x.rows(); ++i) {
    for (int j = 0; j < x.cols(); ++j) out.SetAt(j, i, x.At(i, j));
  }
  return out;
}

// A * B via the three dense variants: MatMul(A, B), MatMulNT(A, B^T) and
// MatMulTN(A^T, B).
std::vector<std::pair<const char*, Tensor>> MatMulFamily(const Tensor& a,
                                                         const Tensor& b) {
  std::vector<std::pair<const char*, Tensor>> out;
  out.emplace_back("MatMul", k::MatMul(a, b));
  out.emplace_back("MatMulNT", k::MatMulNT(a, NaiveTranspose(b)));
  out.emplace_back("MatMulTN", k::MatMulTN(NaiveTranspose(a), b));
  return out;
}

TEST(KernelsTest, MatMulFamilyMatchesNaiveReference) {
  Rng rng(23);
  // n straddles the 32-wide column panels of the GEMM core: below one,
  // exactly one, one plus a tail, several plus a tail. k = 0 must give
  // exact zeros (reference 0, tolerance ~0): the core writes every C entry
  // instead of starting from a zeroed tensor.
  for (int n : {1, 7, 31, 32, 33, 64, 65, 130}) {
    for (int kdim : {0, 1, 3, 257}) {
      for (int m : {1, 5}) {
        // Zero patterns of A: none; every third entry; all but every
        // fourth (the core gathers each row's nonzeros).
        for (int zeros : {0, 1, 2}) {
          Tensor a = Tensor::RandomNormal(m, kdim, 0, 1, &rng);
          for (int64_t i = 0; i < a.size(); ++i) {
            if ((zeros == 1 && i % 3 == 0) || (zeros == 2 && i % 4 != 0)) {
              a.data()[i] = 0.0f;
            }
          }
          const Tensor b = Tensor::RandomNormal(kdim, n, 0, 1, &rng);
          for (const auto& [name, c] : MatMulFamily(a, b)) {
            ASSERT_EQ(c.rows(), m) << name;
            ASSERT_EQ(c.cols(), n) << name;
            for (int i = 0; i < m; ++i) {
              for (int j = 0; j < n; ++j) {
                double ref = 0.0, scale = 0.0;
                for (int kk = 0; kk < kdim; ++kk) {
                  const double p =
                      static_cast<double>(a.At(i, kk)) * b.At(kk, j);
                  ref += p;
                  scale += std::fabs(p);
                }
                EXPECT_NEAR(c.At(i, j), ref, 1e-5 * scale + 1e-30)
                    << name << " m=" << m << " k=" << kdim << " n=" << n
                    << " zeros=" << zeros << " at (" << i << ", " << j
                    << ")";
              }
            }
          }
        }
      }
    }
  }
}

TEST(KernelsTest, MatMulFamilyPropagatesNonFiniteThroughNonzeroA) {
  // Zero-skip rule: B[kk][j] reaches C[i][j] exactly when A(i, kk) != 0.
  // The NaN sits in a full 32-wide panel, the Inf in the tail panel. A is
  // checked mostly nonzero and mostly zero.
  Rng rng(29);
  const int m = 5, kdim = 40, n = 70;
  const int nan_k = 3, nan_j = 5, inf_k = 7, inf_j = 66;
  Tensor b = Tensor::RandomNormal(kdim, n, 0, 1, &rng);
  b.SetAt(nan_k, nan_j, std::numeric_limits<float>::quiet_NaN());
  b.SetAt(inf_k, inf_j, std::numeric_limits<float>::infinity());
  Tensor dense = Tensor::RandomNormal(m, kdim, 0, 1, &rng);
  dense.SetAt(1, nan_k, 0.0f);
  dense.SetAt(4, nan_k, 0.0f);
  dense.SetAt(2, inf_k, 0.0f);
  // Nonzero only where (i + kk) % 4 == 0: row 1 in both special columns.
  Tensor sparse = Tensor::RandomNormal(m, kdim, 0, 1, &rng);
  for (int i = 0; i < m; ++i) {
    for (int kk = 0; kk < kdim; ++kk) {
      if ((i + kk) % 4 != 0) sparse.SetAt(i, kk, 0.0f);
    }
  }
  for (const Tensor& a : {dense, sparse}) {
    for (const auto& [name, c] : MatMulFamily(a, b)) {
      for (int i = 0; i < m; ++i) {
        for (int j = 0; j < n; ++j) {
          const float v = c.At(i, j);
          if (j == nan_j && a.At(i, nan_k) != 0.0f) {
            EXPECT_TRUE(std::isnan(v)) << name << " (" << i << ", " << j << ")";
          } else if (j == inf_j && a.At(i, inf_k) != 0.0f) {
            EXPECT_TRUE(std::isinf(v)) << name << " (" << i << ", " << j << ")";
          } else {
            EXPECT_TRUE(std::isfinite(v))
                << name << " (" << i << ", " << j << ") = " << v;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace vgod
