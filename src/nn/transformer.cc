#include "nn/transformer.h"

#include <cmath>

#include "nn/scratch.h"

namespace trmma {
namespace nn {

TransformerLayer::TransformerLayer(int model_dim, int num_heads, int ffn_dim,
                                   Rng& rng)
    : attention_(model_dim, num_heads, rng),
      ffn_(model_dim, ffn_dim, model_dim, rng),
      norm1_(model_dim),
      norm2_(model_dim) {
  AddChild(&attention_);
  AddChild(&ffn_);
  AddChild(&norm1_);
  AddChild(&norm2_);
}

Tensor TransformerLayer::Forward(Tensor x) {
  Tensor attended = norm1_.Forward(ops::Add(x, attention_.Forward(x, x)));
  return norm2_.Forward(ops::Add(attended, ffn_.Forward(attended)));
}

void TransformerLayer::Infer(double* x, int rows) const {
  const int d = attention_.model_dim();
  const int n = rows * d;
  ScratchFrame frame;
  double* branch = Scratch::Raw(n);
  attention_.InferSelf(x, rows, branch);
  for (int i = 0; i < n; ++i) x[i] += branch[i];
  norm1_.Infer(x, rows);
  ffn_.Infer(x, rows, d, branch, d);
  for (int i = 0; i < n; ++i) x[i] += branch[i];
  norm2_.Infer(x, rows);
}

TransformerEncoder::TransformerEncoder(int model_dim, int num_heads,
                                       int ffn_dim, int num_layers, Rng& rng)
    : model_dim_(model_dim) {
  for (int i = 0; i < num_layers; ++i) {
    layers_.push_back(
        std::make_unique<TransformerLayer>(model_dim, num_heads, ffn_dim, rng));
    AddChild(layers_.back().get());
  }
}

Tensor TransformerEncoder::Forward(Tensor x) {
  Tensor h = ops::Add(
      x, ops::Input(*x.tape(),
                    SinusoidalPositionalEncoding(x.rows(), model_dim_)));
  for (auto& layer : layers_) h = layer->Forward(h);
  return h;
}

void TransformerEncoder::Infer(double* x, int rows) const {
  ScratchFrame frame;
  double* pe = Scratch::Raw(model_dim_);
  for (int pos = 0; pos < rows; ++pos) {
    PositionalEncodingRow(pos, model_dim_, pe);
    double* row = x + pos * model_dim_;
    for (int c = 0; c < model_dim_; ++c) row[c] += pe[c];
  }
  for (const auto& layer : layers_) layer->Infer(x, rows);
}

void PositionalEncodingRow(int pos, int dim, double* out) {
  for (int i = 0; i < dim; i += 2) {
    const double freq = std::pow(10000.0, -static_cast<double>(i) / dim);
    out[i] = std::sin(pos * freq);
    if (i + 1 < dim) out[i + 1] = std::cos(pos * freq);
  }
}

Matrix SinusoidalPositionalEncoding(int len, int dim) {
  Matrix pe(len, dim);
  for (int pos = 0; pos < len; ++pos) {
    PositionalEncodingRow(pos, dim, pe.row(pos));
  }
  return pe;
}

}  // namespace nn
}  // namespace trmma
