#include "nn/attention.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "nn/kernel.h"
#include "nn/scratch.h"

namespace trmma {
namespace nn {

MultiHeadAttention::MultiHeadAttention(int model_dim, int num_heads, Rng& rng)
    : model_dim_(model_dim), num_heads_(num_heads),
      head_dim_(model_dim / num_heads) {
  TRMMA_CHECK_EQ(model_dim % num_heads, 0);
  wq_ = AddParam("wq", XavierUniform(model_dim, model_dim, rng));
  wk_ = AddParam("wk", XavierUniform(model_dim, model_dim, rng));
  wv_ = AddParam("wv", XavierUniform(model_dim, model_dim, rng));
  wo_ = AddParam("wo", XavierUniform(model_dim, model_dim, rng));
}

Tensor MultiHeadAttention::Forward(Tensor query, Tensor keys) {
  TRMMA_CHECK_EQ(query.cols(), model_dim_);
  TRMMA_CHECK_EQ(keys.cols(), model_dim_);
  Tensor q = ops::MatMulParam(query, *wq_);
  Tensor k = ops::MatMulParam(keys, *wk_);
  Tensor v = ops::MatMulParam(keys, *wv_);

  const double inv_sqrt_d = 1.0 / std::sqrt(static_cast<double>(head_dim_));
  Tensor heads;
  for (int h = 0; h < num_heads_; ++h) {
    Tensor qh = ops::SliceCols(q, h * head_dim_, head_dim_);
    Tensor kh = ops::SliceCols(k, h * head_dim_, head_dim_);
    Tensor vh = ops::SliceCols(v, h * head_dim_, head_dim_);
    Tensor scores =
        ops::Scale(ops::MatMul(qh, ops::Transpose(kh)), inv_sqrt_d);
    Tensor attn = ops::SoftmaxRows(scores);
    Tensor out = ops::MatMul(attn, vh);
    heads = h == 0 ? out : ops::ConcatCols(heads, out);
  }
  return ops::MatMulParam(heads, *wo_);
}

void MultiHeadAttention::InferSelf(const double* x, int rows,
                                   double* out) const {
  const int d = model_dim_;
  const int hd = head_dim_;
  const size_t nd = static_cast<size_t>(rows) * d;
  ScratchFrame frame;
  double* q = Scratch::Zeros(nd);
  double* k = Scratch::Zeros(nd);
  double* v = Scratch::Zeros(nd);
  Gemm(rows, d, d, x, d, 1, wq_->value.data(), d, q, d);
  Gemm(rows, d, d, x, d, 1, wk_->value.data(), d, k, d);
  Gemm(rows, d, d, x, d, 1, wv_->value.data(), d, v, d);

  // Heads are written straight into their column block of `heads`, which
  // is what ConcatCols of the per-head products holds.
  const double inv_sqrt_d = 1.0 / std::sqrt(static_cast<double>(hd));
  double* heads = Scratch::Zeros(nd);
  double* kt = Scratch::Raw(static_cast<size_t>(hd) * rows);
  double* scores = Scratch::Raw(static_cast<size_t>(rows) * rows);
  for (int h = 0; h < num_heads_; ++h) {
    for (int p = 0; p < hd; ++p) {
      for (int j = 0; j < rows; ++j) kt[p * rows + j] = k[j * d + h * hd + p];
    }
    std::fill_n(scores, rows * rows, 0.0);
    Gemm(rows, rows, hd, q + h * hd, d, 1, kt, rows, scores, rows);
    for (int i = 0; i < rows * rows; ++i) scores[i] *= inv_sqrt_d;
    for (int r = 0; r < rows; ++r) SoftmaxRow(scores + r * rows, rows);
    Gemm(rows, hd, rows, scores, rows, 1, v + h * hd, d, heads + h * hd, d);
  }
  std::fill_n(out, nd, 0.0);
  Gemm(rows, d, d, heads, d, 1, wo_->value.data(), d, out, d);
}

}  // namespace nn
}  // namespace trmma
