#ifndef TRMMA_NN_KERNEL_H_
#define TRMMA_NN_KERNEL_H_

namespace trmma {
namespace nn {

/// The one matrix-product kernel under all of nn: C += A·B over strided
/// blocks of row-major storage.
///
///   A is m x k with A(i,p) = a[i*a_rs + p*a_cs]   (a_rs = 1, a_cs = lda
///                                                  reads a transposed block)
///   B is k x n with B(p,j) = b[p*ldb + j]
///   C is m x n with C(i,j) = c[i*ldc + j]
///
/// Bit-exactness contract (DESIGN.md §15): every C(i,j) continues its own
/// sum over p = 0..k-1 in increasing order, one rounded multiply and one
/// rounded add per term — never an FMA — and, with `skip_zero_a`, terms
/// whose A(i,p) compares equal to zero (either sign) are skipped. That is
/// exactly the scalar i-k-j loop
///
///   for i: for p: if (A(i,p) == 0) continue; for j: C(i,j) += A(i,p)*B(p,j)
///
/// so the result is the same bit for bit, whatever blocking the kernel
/// uses: no output element ever reads another's partial sum. (A NaN result
/// is NaN in both; when two NaNs meet in an add, which payload survives is
/// the hardware's choice, in the loop as much as here.) Two
/// consequences callers rely on:
///   - rows are independent, so running many rows in one call gives each
///     row the bits it would get alone;
///   - splitting k at any point q and calling the kernel twice on the same
///     C (p < q, then p >= q) gives the bits of one call over all of k.
///
/// The AVX2 path is taken when the CPU has it, the portable path otherwise
/// (and on every non-x86-64 build); both follow the contract.
void Gemm(int m, int n, int k, const double* a, int a_rs, int a_cs,
          const double* b, int ldb, double* c, int ldc,
          bool skip_zero_a = true);

/// Row-wise layer normalization of one row of `d` values: the arithmetic of
/// ops::LayerNormRows, shared by the tape op and the tape-free forward so
/// both produce the same bits. Writes out[c] = xhat[c]*gamma[c] + beta[c]
/// (`out` may alias `in`), stores xhat when `xhat` is non-null, and returns
/// 1/sigma.
double LayerNormRow(const double* in, int d, const double* gamma,
                    const double* beta, double eps, double* out,
                    double* xhat);

/// max(x, 0) in place, as ops::Relu computes it: NaN and -0 pass through.
void ReluInPlace(double* x, int n);

/// In-place softmax of one row of `n` values (the arithmetic of
/// ops::SoftmaxRows).
void SoftmaxRow(double* row, int n);

namespace kernel_internal {

/// The two implementations behind Gemm, exposed so tests can hold each to
/// the contract on any x86-64 host.
void GemmPortable(int m, int n, int k, const double* a, int a_rs, int a_cs,
                  const double* b, int ldb, double* c, int ldc,
                  bool skip_zero_a);
/// False when the build or the CPU has no AVX2 path.
bool HasAvx2();
/// Requires HasAvx2().
void GemmAvx2(int m, int n, int k, const double* a, int a_rs, int a_cs,
              const double* b, int ldb, double* c, int ldc, bool skip_zero_a);

}  // namespace kernel_internal
}  // namespace nn
}  // namespace trmma

#endif  // TRMMA_NN_KERNEL_H_
