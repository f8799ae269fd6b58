#include "nn/matrix.h"

#include <atomic>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "nn/kernel.h"

namespace trmma {
namespace nn {
namespace {

std::atomic<int64_t> g_total_bytes{0};
std::atomic<int64_t> g_live_bytes{0};
std::atomic<int64_t> g_peak_bytes{0};

void TrackAlloc(int64_t bytes) {
  if (bytes == 0) return;
  g_total_bytes.fetch_add(bytes, std::memory_order_relaxed);
  const int64_t live =
      g_live_bytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  int64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
}

void TrackFree(int64_t bytes) {
  if (bytes != 0) g_live_bytes.fetch_sub(bytes, std::memory_order_relaxed);
}

int64_t LogicalBytes(int rows, int cols) {
  return static_cast<int64_t>(rows) * cols *
         static_cast<int64_t>(sizeof(double));
}

}  // namespace

MatrixAllocStats GetMatrixAllocStats() {
  MatrixAllocStats s;
  s.total_bytes = g_total_bytes.load(std::memory_order_relaxed);
  s.live_bytes = g_live_bytes.load(std::memory_order_relaxed);
  s.peak_bytes = g_peak_bytes.load(std::memory_order_relaxed);
  return s;
}

int64_t MatrixBytesAllocated() {
  return g_total_bytes.load(std::memory_order_relaxed);
}

void ResetMatrixPeakBytes() {
  g_peak_bytes.store(g_live_bytes.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
}

Matrix::Matrix(int rows, int cols) : Matrix(rows, cols, 0.0) {}

Matrix::Matrix(int rows, int cols, double fill)
    : rows_(rows), cols_(cols), data_(static_cast<size_t>(rows) * cols, fill) {
  TRMMA_CHECK_GE(rows, 0);
  TRMMA_CHECK_GE(cols, 0);
  TrackAlloc(LogicalBytes(rows_, cols_));
}

Matrix::Matrix(const Matrix& o)
    : rows_(o.rows_), cols_(o.cols_), data_(o.data_) {
  TrackAlloc(LogicalBytes(rows_, cols_));
}

Matrix::Matrix(Matrix&& o) noexcept
    : rows_(o.rows_), cols_(o.cols_), data_(std::move(o.data_)) {
  // The moved-from matrix no longer owns storage; its bytes are ours now.
  o.rows_ = 0;
  o.cols_ = 0;
  o.data_.clear();
}

Matrix& Matrix::operator=(const Matrix& o) {
  if (this == &o) return *this;
  TrackFree(LogicalBytes(rows_, cols_));
  rows_ = o.rows_;
  cols_ = o.cols_;
  data_ = o.data_;
  TrackAlloc(LogicalBytes(rows_, cols_));
  return *this;
}

Matrix& Matrix::operator=(Matrix&& o) noexcept {
  if (this == &o) return *this;
  TrackFree(LogicalBytes(rows_, cols_));
  rows_ = o.rows_;
  cols_ = o.cols_;
  data_ = std::move(o.data_);
  o.rows_ = 0;
  o.cols_ = 0;
  o.data_.clear();
  return *this;
}

Matrix::~Matrix() { TrackFree(LogicalBytes(rows_, cols_)); }

void Matrix::Fill(double v) {
  for (double& x : data_) x = v;
}

void Matrix::Axpy(double alpha, const Matrix& other) {
  TRMMA_CHECK(SameShape(other));
  const double* src = other.data();
  double* dst = data();
  for (int i = 0; i < size(); ++i) dst[i] += alpha * src[i];
}

double Matrix::Sum() const {
  double total = 0.0;
  for (double x : data_) total += x;
  return total;
}

void MatMul(const Matrix& a, const Matrix& b, Matrix* out) {
  *out = Matrix(a.rows(), b.cols());
  AddMatMul(a, b, out);
}

void AddMatMul(const Matrix& a, const Matrix& b, Matrix* out) {
  TRMMA_CHECK_EQ(a.cols(), b.rows());
  TRMMA_CHECK_EQ(out->rows(), a.rows());
  TRMMA_CHECK_EQ(out->cols(), b.cols());
  Gemm(a.rows(), b.cols(), a.cols(), a.data(), a.cols(), 1, b.data(),
       b.cols(), out->data(), out->cols());
}

void AddMatMulTransA(const Matrix& a, const Matrix& b, Matrix* out) {
  TRMMA_CHECK_EQ(a.rows(), b.rows());
  TRMMA_CHECK_EQ(out->rows(), a.cols());
  TRMMA_CHECK_EQ(out->cols(), b.cols());
  // A^T(i,p) = a(p,i): a transposed view, no copy. Each output still sums
  // p in increasing order with zero terms skipped, as the p-i-j loop did.
  Gemm(a.cols(), b.cols(), a.rows(), a.data(), 1, a.cols(), b.data(),
       b.cols(), out->data(), out->cols());
}

void AddMatMulTransB(const Matrix& a, const Matrix& b, Matrix* out) {
  TRMMA_CHECK_EQ(a.cols(), b.cols());
  TRMMA_CHECK_EQ(out->rows(), a.rows());
  TRMMA_CHECK_EQ(out->cols(), b.rows());
  // out(i,j) += dot(a(i,:), b(j,:)), each dot summed from +0 over every
  // term (no zero skip) and then added once: run the kernel into a zeroed
  // block against a packed B^T, then add the block.
  const int m = a.rows();
  const int k = a.cols();
  const int n = b.rows();
  thread_local std::vector<double> bt;
  thread_local std::vector<double> dots;
  bt.resize(static_cast<size_t>(k) * n);
  for (int j = 0; j < n; ++j) {
    const double* brow = b.row(j);
    for (int p = 0; p < k; ++p) bt[static_cast<size_t>(p) * n + j] = brow[p];
  }
  dots.assign(static_cast<size_t>(m) * n, 0.0);
  Gemm(m, n, k, a.data(), k, 1, bt.data(), n, dots.data(), n,
       /*skip_zero_a=*/false);
  double* o = out->data();
  for (size_t i = 0; i < dots.size(); ++i) o[i] += dots[i];
}

}  // namespace nn
}  // namespace trmma
