#include "nn/layers.h"

#include <algorithm>

#include "common/logging.h"
#include "nn/kernel.h"
#include "nn/scratch.h"

namespace trmma {
namespace nn {
namespace {

constexpr double kLayerNormEps = 1e-5;

}  // namespace

Linear::Linear(int in_dim, int out_dim, Rng& rng)
    : w_(AddParam("w", XavierUniform(in_dim, out_dim, rng))),
      b_(AddParam("b", Matrix(1, out_dim))) {}

Tensor Linear::Forward(Tensor x) { return ops::Affine(x, *w_, *b_); }

void AffineInfer(const double* x, int rows, int ldx, const Matrix& w,
                 const Matrix& b, double* out, int ldo) {
  const int n = w.cols();
  for (int r = 0; r < rows; ++r) std::fill_n(out + r * ldo, n, 0.0);
  Gemm(rows, n, w.rows(), x, ldx, 1, w.data(), n, out, ldo);
  for (int r = 0; r < rows; ++r) {
    double* o = out + r * ldo;
    for (int c = 0; c < n; ++c) o[c] += b.data()[c];
  }
}

void Linear::Infer(const double* x, int rows, int ldx, double* out,
                   int ldo) const {
  AffineInfer(x, rows, ldx, w_->value, b_->value, out, ldo);
}

Mlp::Mlp(int in_dim, int hidden_dim, int out_dim, Rng& rng)
    : fc1_(in_dim, hidden_dim, rng), fc2_(hidden_dim, out_dim, rng) {
  AddChild(&fc1_);
  AddChild(&fc2_);
}

Tensor Mlp::Forward(Tensor x) {
  return fc2_.Forward(ops::Relu(fc1_.Forward(x)));
}

void Mlp::Infer(const double* x, int rows, int ldx, double* out,
                int ldo) const {
  ScratchFrame frame;
  const int hidden = fc1_.weight().value.cols();
  double* h = Scratch::Raw(static_cast<size_t>(rows) * hidden);
  fc1_.Infer(x, rows, ldx, h, hidden);
  ReluInPlace(h, rows * hidden);
  fc2_.Infer(h, rows, hidden, out, ldo);
}

LayerNorm::LayerNorm(int dim)
    : gamma_(AddParam("gamma", Matrix(1, dim, 1.0))),
      beta_(AddParam("beta", Matrix(1, dim))) {}

Tensor LayerNorm::Forward(Tensor x) {
  return ops::LayerNormRows(x, *gamma_, *beta_, kLayerNormEps);
}

void LayerNorm::Infer(double* x, int rows) const {
  const int d = gamma_->value.cols();
  for (int r = 0; r < rows; ++r) {
    double* row = x + r * d;
    LayerNormRow(row, d, gamma_->value.data(), beta_->value.data(),
                 kLayerNormEps, row, nullptr);
  }
}

Embedding::Embedding(int num_rows, int dim, Rng& rng)
    : table_(AddParam("table", XavierUniform(num_rows, dim, rng))) {}

void Embedding::LoadPretrained(const Matrix& table) {
  TRMMA_CHECK(table_->value.SameShape(table));
  table_->value = table;
}

Tensor Embedding::Forward(Tape& tape, const std::vector<int>& ids) {
  return ops::EmbeddingLookup(tape, *table_, ids);
}

}  // namespace nn
}  // namespace trmma
