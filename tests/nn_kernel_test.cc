#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/random.h"
#include "nn/kernel.h"
#include "nn/matrix.h"

namespace trmma {
namespace nn {
namespace {

using GemmFn = void (*)(int, int, int, const double*, int, int, const double*,
                        int, double*, int, bool);

const int kSizes[] = {0, 1, 3, 4, 15, 16, 17, 39, 64};

/// The scalar i-k-j loop the kernel must reproduce, on the same strided
/// views; with `skip_zero_a` off every term is taken.
void ScalarGemm(int m, int n, int k, const double* a, int a_rs, int a_cs,
                const double* b, int ldb, double* c, int ldc,
                bool skip_zero_a) {
  for (int i = 0; i < m; ++i) {
    double* crow = c + i * ldc;
    for (int p = 0; p < k; ++p) {
      const double av = a[i * a_rs + p * a_cs];
      if (skip_zero_a && av == 0.0) continue;
      const double* brow = b + p * ldb;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

/// Values in [-2, 2] of which about `zero_share` are exact zeros, split
/// between +0 and -0, so the zero skip and signed-zero sums are exercised.
std::vector<double> Values(size_t count, Rng& rng, double zero_share = 0.33) {
  std::vector<double> v(count);
  for (double& x : v) {
    const double u = rng.Uniform(0, 1);
    if (u < 0.6 * zero_share) {
      x = 0.0;
    } else if (u < zero_share) {
      x = -0.0;
    } else {
      x = rng.Uniform(-2, 2);
    }
  }
  return v;
}

/// Bitwise equality, so -0 vs +0 and NaN payloads count as differences.
bool SameBits(const std::vector<double>& x, const std::vector<double>& y) {
  if (x.size() != y.size()) return false;
  for (size_t i = 0; i < x.size(); ++i) {
    if (std::bit_cast<uint64_t>(x[i]) != std::bit_cast<uint64_t>(y[i])) {
      return false;
    }
  }
  return true;
}

struct Path {
  const char* name;
  GemmFn fn;
  bool available;
};

std::vector<Path> Paths() {
  return {{"portable", &kernel_internal::GemmPortable, true},
          {"avx2", &kernel_internal::GemmAvx2, kernel_internal::HasAvx2()}};
}

/// Runs one product on `path` and on the scalar loop, with every operand a
/// sub-block of a larger buffer (padding on both sides of each row), and
/// requires identical bits inside and outside the output block.
void CheckShape(const Path& path, int m, int n, int k, bool transposed_a,
                bool skip_zero_a, Rng& rng, double a_zero_share = 0.33) {
  const int pad = 3;
  // A storage: row-major m x k block, or the transpose of a k x m block.
  const int a_rows = transposed_a ? k : m;
  const int a_cols = transposed_a ? m : k;
  const int lda = a_cols + pad;
  const int ldb = n + pad;
  const int ldc = n + 2 * pad;
  const std::vector<double> a =
      Values((a_rows + 1) * lda + pad, rng, a_zero_share);
  const std::vector<double> b = Values((k + 1) * ldb + pad, rng);
  std::vector<double> c = Values((m + 1) * ldc + pad, rng);
  std::vector<double> ref = c;
  const double* a0 = a.data() + pad;
  const int a_rs = transposed_a ? 1 : lda;
  const int a_cs = transposed_a ? lda : 1;
  path.fn(m, n, k, a0, a_rs, a_cs, b.data() + pad, ldb, c.data() + pad, ldc,
          skip_zero_a);
  ScalarGemm(m, n, k, a0, a_rs, a_cs, b.data() + pad, ldb, ref.data() + pad,
             ldc, skip_zero_a);
  EXPECT_TRUE(SameBits(c, ref))
      << path.name << " m=" << m << " n=" << n << " k=" << k
      << " transposed_a=" << transposed_a << " skip=" << skip_zero_a;
}

TEST(GemmKernelTest, BothPathsMatchScalarLoopOnEveryShape) {
  for (const Path& path : Paths()) {
    if (!path.available) continue;
    Rng rng(17);
    for (int m : kSizes) {
      for (int k : kSizes) {
        for (int n : kSizes) CheckShape(path, m, n, k, false, true, rng);
      }
    }
  }
}

TEST(GemmKernelTest, ZeroFreeAndSparseRowsMatchScalarLoop) {
  // Rows without zeros are read in place, rows with some are compacted:
  // both must give the loop's bits, alone and mixed in one call.
  for (const Path& path : Paths()) {
    if (!path.available) continue;
    Rng rng(19);
    for (double zero_share : {0.0, 0.02, 0.5, 1.0}) {
      for (int m : {1, 4, 17}) {
        for (int k : kSizes) {
          for (int n : {1, 4, 17, 64}) {
            CheckShape(path, m, n, k, false, true, rng, zero_share);
          }
        }
      }
    }
  }
}

TEST(GemmKernelTest, TransposedViewAndAllTermsModeMatchScalarLoop) {
  for (const Path& path : Paths()) {
    if (!path.available) continue;
    Rng rng(23);
    for (int m : kSizes) {
      for (int k : kSizes) {
        for (int n : kSizes) {
          CheckShape(path, m, n, k, true, true, rng);
          CheckShape(path, m, n, k, false, false, rng);
        }
      }
    }
  }
}

TEST(GemmKernelTest, Avx2PathCoversEveryPanelWidth) {
  if (!kernel_internal::HasAvx2()) {
    GTEST_SKIP() << "no AVX2 on this CPU (or not an x86-64 build): only the "
                    "portable path runs";
  }
  // Large enough to take the 32-column panel, the 16- and 4-column panels
  // and the scalar tail in one row.
  Rng rng(29);
  CheckShape(Paths()[1], 5, 32 + 16 + 4 + 3, 70, false, true, rng);
}

/// Equal bits, except that any two NaNs match: when both operands of an
/// add are NaN, which payload survives depends on the operand order the
/// compiler picked, in the scalar loop as much as in the kernel.
bool SameBitsOrBothNan(const std::vector<double>& x,
                       const std::vector<double>& y) {
  if (x.size() != y.size()) return false;
  for (size_t i = 0; i < x.size(); ++i) {
    if (std::isnan(x[i]) && std::isnan(y[i])) continue;
    if (std::bit_cast<uint64_t>(x[i]) != std::bit_cast<uint64_t>(y[i])) {
      return false;
    }
  }
  return true;
}

TEST(GemmKernelTest, NonFiniteValuesPropagateAsInScalarLoop) {
  // 0 * inf is NaN: a skipped zero term must not turn a sum into NaN, and a
  // taken one must.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const Path& path : Paths()) {
    if (!path.available) continue;
    for (bool skip : {true, false}) {
      std::vector<double> a = {0.0, 1.5, -0.0, nan, 2.0, 0.0};
      std::vector<double> b(6 * 5);
      for (size_t i = 0; i < b.size(); ++i) b[i] = 0.25 * (i % 7) - 0.5;
      b[0] = inf;
      b[2 * 5 + 1] = -inf;
      std::vector<double> c(5, -0.0);
      std::vector<double> ref = c;
      path.fn(1, 5, 6, a.data(), 6, 1, b.data(), 5, c.data(), 5, skip);
      ScalarGemm(1, 5, 6, a.data(), 6, 1, b.data(), 5, ref.data(), 5, skip);
      EXPECT_TRUE(SameBitsOrBothNan(c, ref)) << path.name << " skip=" << skip;
    }
  }
}

// ---- the Matrix entry points against their former scalar loops ----------

Matrix RandomMatrix(int rows, int cols, Rng& rng) {
  Matrix out(rows, cols);
  const std::vector<double> v = Values(out.size(), rng);
  for (int i = 0; i < out.size(); ++i) out.data()[i] = v[i];
  return out;
}

std::vector<double> Flat(const Matrix& x) {
  return std::vector<double>(x.data(), x.data() + x.size());
}

void ScalarAddMatMulTransA(const Matrix& a, const Matrix& b, Matrix* out) {
  for (int p = 0; p < a.rows(); ++p) {
    for (int i = 0; i < a.cols(); ++i) {
      const double av = a.at(p, i);
      if (av == 0.0) continue;
      for (int j = 0; j < b.cols(); ++j) out->at(i, j) += av * b.at(p, j);
    }
  }
}

void ScalarAddMatMulTransB(const Matrix& a, const Matrix& b, Matrix* out) {
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < b.rows(); ++j) {
      double acc = 0.0;
      for (int p = 0; p < a.cols(); ++p) acc += a.at(i, p) * b.at(j, p);
      out->at(i, j) += acc;
    }
  }
}

TEST(GemmKernelTest, MatrixProductsMatchTheirScalarLoops) {
  Rng rng(31);
  for (int m : kSizes) {
    for (int k : kSizes) {
      for (int n : kSizes) {
        {
          const Matrix a = RandomMatrix(m, k, rng);
          const Matrix b = RandomMatrix(k, n, rng);
          Matrix out = RandomMatrix(m, n, rng);
          Matrix ref = out;
          AddMatMul(a, b, &out);
          ScalarGemm(m, n, k, a.data(), k, 1, b.data(), n, ref.data(), n,
                     true);
          ASSERT_TRUE(SameBits(Flat(out), Flat(ref)))
              << "AddMatMul " << m << "x" << k << "x" << n;
        }
        {
          const Matrix a = RandomMatrix(k, m, rng);
          const Matrix b = RandomMatrix(k, n, rng);
          Matrix out = RandomMatrix(m, n, rng);
          Matrix ref = out;
          AddMatMulTransA(a, b, &out);
          ScalarAddMatMulTransA(a, b, &ref);
          ASSERT_TRUE(SameBits(Flat(out), Flat(ref)))
              << "AddMatMulTransA " << m << "x" << k << "x" << n;
        }
        {
          const Matrix a = RandomMatrix(m, k, rng);
          const Matrix b = RandomMatrix(n, k, rng);
          Matrix out = RandomMatrix(m, n, rng);
          Matrix ref = out;
          AddMatMulTransB(a, b, &out);
          ScalarAddMatMulTransB(a, b, &ref);
          ASSERT_TRUE(SameBits(Flat(out), Flat(ref)))
              << "AddMatMulTransB " << m << "x" << k << "x" << n;
        }
      }
    }
  }
}

TEST(GemmKernelTest, SplittingTheSumContinuesItBitForBit) {
  // Two calls over p < q and p >= q on the same outputs give the bits of
  // one call: the property the tape-free MMA pass builds on.
  Rng rng(37);
  const int m = 9, n = 37, k = 39;
  const std::vector<double> a = Values(m * k, rng);
  const std::vector<double> b = Values(k * n, rng);
  for (int q : {0, 1, 16, 32, 38, 39}) {
    std::vector<double> whole(m * n, 0.0);
    std::vector<double> split(m * n, 0.0);
    Gemm(m, n, k, a.data(), k, 1, b.data(), n, whole.data(), n);
    Gemm(m, n, q, a.data(), k, 1, b.data(), n, split.data(), n);
    Gemm(m, n, k - q, a.data() + q, k, 1, b.data() + q * n, n, split.data(),
         n);
    EXPECT_TRUE(SameBits(whole, split)) << "q=" << q;
  }
}

}  // namespace
}  // namespace nn
}  // namespace trmma
