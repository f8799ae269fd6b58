#include "nn/kernel.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

// This file is compiled with -ffp-contract=off (src/CMakeLists.txt): no
// multiply-add below may become an FMA, whatever the target.

namespace trmma {
namespace nn {
namespace {

/// Four doubles in one GNU vector: a 256-bit register on the AVX2 path,
/// register pairs on the portable one. + and * act lane by lane as the
/// scalar IEEE operations.
typedef double V4 __attribute__((vector_size(32)));
/// The same, for unaligned loads and stores through double storage.
typedef double V4u __attribute__((vector_size(32), aligned(8), may_alias));
/// Lane masks of a V4 comparison.
typedef int64_t V4i __attribute__((vector_size(32)));

#define TRMMA_INLINE inline __attribute__((always_inline))

/// The terms of one output row, in increasing p: the offset p*ldb of the
/// B row of every A(i,p) its sums take, and the A values; `all_off` holds
/// p*ldb for every p, for rows that take all their terms. Grown on demand,
/// reused per thread.
struct RowTerms {
  std::vector<ptrdiff_t> off;
  std::vector<double> val;
  std::vector<ptrdiff_t> all_off;
};

thread_local RowTerms t_terms;

/// Adds the row's terms into the 4*kVecs outputs c[0..4*kVecs) held in
/// registers: each lane keeps its own sum, in term order.
template <int kVecs>
TRMMA_INLINE void RowPanel(int nnz, const ptrdiff_t* off, const double* val,
                           const double* b, double* c) {
  V4 acc[kVecs];
#pragma GCC unroll 8
  for (int v = 0; v < kVecs; ++v) acc[v] = reinterpret_cast<const V4u*>(c)[v];
  for (int t = 0; t < nnz; ++t) {
    const V4u* bp = reinterpret_cast<const V4u*>(b + off[t]);
    const double av = val[t];
#pragma GCC unroll 8
    for (int v = 0; v < kVecs; ++v) acc[v] += av * bp[v];
  }
#pragma GCC unroll 8
  for (int v = 0; v < kVecs; ++v) reinterpret_cast<V4u*>(c)[v] = acc[v];
}

/// True when none of x[0..k) compares equal to zero (NaN does not).
TRMMA_INLINE bool NoZeros(const double* x, int k) {
  V4i zero = {0, 0, 0, 0};
  int p = 0;
  for (; p + 4 <= k; p += 4) {
    zero |= *reinterpret_cast<const V4u*>(x + p) == 0.0;
  }
  bool any = (zero[0] | zero[1] | zero[2] | zero[3]) != 0;
  for (; p < k; ++p) any |= x[p] == 0.0;
  return !any;
}

/// The kernel body, inlined into each target-specific entry point so the
/// vector code is generated for that target. kWide enables the 32-column
/// panel, which needs 8 vector accumulators (16 registers on AVX2).
template <bool kWide>
TRMMA_INLINE void GemmBody(int m, int n, int k, const double* a, int a_rs,
                           int a_cs, const double* b, int ldb, double* c,
                           int ldc, bool skip_zero_a) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  RowTerms& terms = t_terms;
  if (static_cast<int>(terms.off.size()) < k) {
    terms.off.resize(k);
    terms.val.resize(k);
    terms.all_off.resize(k);
  }
  ptrdiff_t* all_off = terms.all_off.data();
  for (int p = 0; p < k; ++p) all_off[p] = static_cast<ptrdiff_t>(p) * ldb;
  for (int i = 0; i < m; ++i) {
    const double* ai = a + static_cast<ptrdiff_t>(i) * a_rs;
    // A contiguous row that takes every term is used in place; any other
    // row is compacted to the terms it takes.
    const ptrdiff_t* off = all_off;
    const double* val = ai;
    int nnz = k;
    if (a_cs != 1 || (skip_zero_a && !NoZeros(ai, k))) {
      double* row_val = terms.val.data();
      if (skip_zero_a) {
        // Branch-free compaction: after a ReLU about half the entries are
        // zero in no pattern, which would make a branch a coin flip.
        ptrdiff_t* row_off = terms.off.data();
        nnz = 0;
        for (int p = 0; p < k; ++p) {
          const double av = ai[static_cast<ptrdiff_t>(p) * a_cs];
          row_off[nnz] = all_off[p];
          row_val[nnz] = av;
          nnz += av != 0.0;
        }
        if (nnz == 0) continue;
        off = row_off;
      } else {
        for (int p = 0; p < k; ++p) {
          row_val[p] = ai[static_cast<ptrdiff_t>(p) * a_cs];
        }
      }
      val = row_val;
    }
    double* ci = c + static_cast<ptrdiff_t>(i) * ldc;
    int j = 0;
    if constexpr (kWide) {
      for (; j + 32 <= n; j += 32) RowPanel<8>(nnz, off, val, b + j, ci + j);
    }
    for (; j + 16 <= n; j += 16) RowPanel<4>(nnz, off, val, b + j, ci + j);
    for (; j + 4 <= n; j += 4) RowPanel<1>(nnz, off, val, b + j, ci + j);
    for (; j < n; ++j) {
      double acc = ci[j];
      for (int t = 0; t < nnz; ++t) acc += val[t] * b[off[t] + j];
      ci[j] = acc;
    }
  }
}

}  // namespace

namespace kernel_internal {

void GemmPortable(int m, int n, int k, const double* a, int a_rs, int a_cs,
                  const double* b, int ldb, double* c, int ldc,
                  bool skip_zero_a) {
  GemmBody<false>(m, n, k, a, a_rs, a_cs, b, ldb, c, ldc, skip_zero_a);
}

#if defined(__x86_64__)

bool HasAvx2() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return has;
}

__attribute__((target("avx2"))) void GemmAvx2(int m, int n, int k,
                                              const double* a, int a_rs,
                                              int a_cs, const double* b,
                                              int ldb, double* c, int ldc,
                                              bool skip_zero_a) {
  GemmBody<true>(m, n, k, a, a_rs, a_cs, b, ldb, c, ldc, skip_zero_a);
}

#else

bool HasAvx2() { return false; }

void GemmAvx2(int m, int n, int k, const double* a, int a_rs, int a_cs,
              const double* b, int ldb, double* c, int ldc,
              bool skip_zero_a) {
  GemmPortable(m, n, k, a, a_rs, a_cs, b, ldb, c, ldc, skip_zero_a);
}

#endif

}  // namespace kernel_internal

void Gemm(int m, int n, int k, const double* a, int a_rs, int a_cs,
          const double* b, int ldb, double* c, int ldc, bool skip_zero_a) {
  if (kernel_internal::HasAvx2()) {
    kernel_internal::GemmAvx2(m, n, k, a, a_rs, a_cs, b, ldb, c, ldc,
                              skip_zero_a);
  } else {
    kernel_internal::GemmPortable(m, n, k, a, a_rs, a_cs, b, ldb, c, ldc,
                                  skip_zero_a);
  }
}

double LayerNormRow(const double* in, int d, const double* gamma,
                    const double* beta, double eps, double* out,
                    double* xhat) {
  double mean = 0.0;
  for (int c = 0; c < d; ++c) mean += in[c];
  mean /= d;
  double var = 0.0;
  for (int c = 0; c < d; ++c) {
    const double diff = in[c] - mean;
    var += diff * diff;
  }
  var /= d;
  const double inv = 1.0 / std::sqrt(var + eps);
  for (int c = 0; c < d; ++c) {
    const double xh = (in[c] - mean) * inv;
    if (xhat != nullptr) xhat[c] = xh;
    out[c] = xh * gamma[c] + beta[c];
  }
  return inv;
}

void ReluInPlace(double* x, int n) {
  // `x < 0 ? 0 : x` is false for NaN and -0, so both keep their bits. On
  // scalars GCC turns the select back into a branch, which mispredicts on
  // every other element of a pre-activation; on (baseline SSE2-sized)
  // vectors it is a compare and a mask.
  typedef double V2u __attribute__((vector_size(16), aligned(8), may_alias));
  const V2u zero = {0.0, 0.0};
  int i = 0;
  for (; i + 2 <= n; i += 2) {
    V2u* v = reinterpret_cast<V2u*>(x + i);
    *v = *v < 0.0 ? zero : *v;
  }
  if (i < n && x[i] < 0.0) x[i] = 0.0;
}

void SoftmaxRow(double* row, int n) {
  double mx = row[0];
  for (int c = 1; c < n; ++c) mx = std::max(mx, row[c]);
  double sum = 0.0;
  for (int c = 0; c < n; ++c) {
    row[c] = std::exp(row[c] - mx);
    sum += row[c];
  }
  for (int c = 0; c < n; ++c) row[c] /= sum;
}

}  // namespace nn
}  // namespace trmma
