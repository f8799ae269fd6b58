#ifndef TRMMA_NN_LAYERS_H_
#define TRMMA_NN_LAYERS_H_

#include "nn/module.h"
#include "nn/ops.h"

namespace trmma {
namespace nn {

/// Tape-free x·W + b over `rows` rows of x (row stride ldx) into out (row
/// stride ldo): the arithmetic of ops::Affine, a zeroed product through the
/// kernel and then the bias.
void AffineInfer(const double* x, int rows, int ldx, const Matrix& w,
                 const Matrix& b, double* out, int ldo);

/// Fully-connected layer y = xW + b.
class Linear : public Module {
 public:
  Linear(int in_dim, int out_dim, Rng& rng);

  Tensor Forward(Tensor x);

  /// Tape-free Forward over const weights, bit-identical to it: writes
  /// x·W + b for `rows` rows of x (row stride ldx) into out (row stride
  /// ldo).
  void Infer(const double* x, int rows, int ldx, double* out, int ldo) const;

  Param& weight() { return *w_; }
  Param& bias() { return *b_; }
  const Param& weight() const { return *w_; }
  const Param& bias() const { return *b_; }

 private:
  Param* w_;
  Param* b_;
};

/// Two-layer perceptron with ReLU: relu(xW1+b1)W2+b2 (paper Eq. 2/7/15).
class Mlp : public Module {
 public:
  Mlp(int in_dim, int hidden_dim, int out_dim, Rng& rng);

  Tensor Forward(Tensor x);

  /// Tape-free Forward over const weights, bit-identical to it (row strides
  /// as in Linear::Infer).
  void Infer(const double* x, int rows, int ldx, double* out, int ldo) const;

  const Linear& fc1() const { return fc1_; }
  const Linear& fc2() const { return fc2_; }

 private:
  Linear fc1_;
  Linear fc2_;
};

/// Row-wise layer normalization with trainable gain and bias.
class LayerNorm : public Module {
 public:
  explicit LayerNorm(int dim);

  Tensor Forward(Tensor x);

  /// Tape-free Forward, bit-identical to it, in place on `rows` contiguous
  /// rows.
  void Infer(double* x, int rows) const;

 private:
  Param* gamma_;
  Param* beta_;
};

/// Trainable embedding table; rows are looked up by integer id. Supports
/// initialization from pre-trained vectors (MMA initializes its segment
/// table from Node2Vec, paper Eq. 1).
class Embedding : public Module {
 public:
  Embedding(int num_rows, int dim, Rng& rng);

  /// Overwrites the table with pre-trained vectors (same shape).
  void LoadPretrained(const Matrix& table);

  Tensor Forward(Tape& tape, const std::vector<int>& ids);

  Param& table() { return *table_; }
  const Param& table() const { return *table_; }

 private:
  Param* table_;
};

}  // namespace nn
}  // namespace trmma

#endif  // TRMMA_NN_LAYERS_H_
