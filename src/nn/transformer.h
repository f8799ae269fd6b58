#ifndef TRMMA_NN_TRANSFORMER_H_
#define TRMMA_NN_TRANSFORMER_H_

#include <memory>
#include <vector>

#include "nn/attention.h"
#include "nn/layers.h"
#include "nn/module.h"

namespace trmma {
namespace nn {

/// One post-norm transformer encoder layer (paper Eq. 6):
///   X' = LayerNorm(X + MHAttn(X,X,X));  out = LayerNorm(X' + FFN(X')).
class TransformerLayer : public Module {
 public:
  TransformerLayer(int model_dim, int num_heads, int ffn_dim, Rng& rng);

  Tensor Forward(Tensor x);

  /// Tape-free Forward, bit-identical to it, in place on `rows` contiguous
  /// rows of model_dim values.
  void Infer(double* x, int rows) const;

 private:
  MultiHeadAttention attention_;
  Mlp ffn_;
  LayerNorm norm1_;
  LayerNorm norm2_;
};

/// A stack of transformer layers with additive sinusoidal positional
/// encodings (Trans(.) in paper Eq. 3/11/12).
class TransformerEncoder : public Module {
 public:
  TransformerEncoder(int model_dim, int num_heads, int ffn_dim,
                     int num_layers, Rng& rng);

  /// Encodes a sequence (len x d) -> (len x d).
  Tensor Forward(Tensor x);

  /// Tape-free Forward over const weights, bit-identical to it, in place on
  /// `rows` contiguous rows of model_dim values.
  void Infer(double* x, int rows) const;

 private:
  int model_dim_;
  std::vector<double> pe_freq_;  ///< PositionalFrequencies(model_dim_)
  std::vector<std::unique_ptr<TransformerLayer>> layers_;
};

/// Frequencies of the sinusoidal positional encoding, one per column pair:
/// freq[i / 2] = 10000^(-i / dim) for even i < dim.
std::vector<double> PositionalFrequencies(int dim);

/// Row `pos` of the encoding (`dim` values) over PositionalFrequencies(dim):
/// sin(pos * freq) in the even columns, cos(pos * freq) in the odd ones.
void PositionalEncodingRow(int pos, int dim, const double* freq, double* out);

/// Its first `len` rows as a matrix (len x dim).
Matrix SinusoidalPositionalEncoding(int len, int dim, const double* freq);

}  // namespace nn
}  // namespace trmma

#endif  // TRMMA_NN_TRANSFORMER_H_
