#include "nn/ops.h"

#include <cmath>
#include <memory>

#include "common/logging.h"
#include "nn/kernel.h"
#include "nn/profiler.h"

namespace trmma {
namespace nn {
namespace ops {
namespace {

double SigmoidScalar(double x) {
  if (x >= 0) return 1.0 / (1.0 + std::exp(-x));
  const double e = std::exp(x);
  return e / (1.0 + e);
}

}  // namespace

Tensor Input(Tape& tape, Matrix value) {
  OpScope prof("input");
  return tape.NewNode(std::move(value), nullptr);
}

Tensor FromParam(Tape& tape, Param& param) {
  OpScope prof("from_param");
  Matrix copy = param.value;
  Param* p = &param;
  return tape.NewNode(std::move(copy), [p](Tape& t, int self) {
    p->grad.Axpy(1.0, t.grad(self));
  });
}

Tensor MatMul(Tensor a, Tensor b) {
  OpScope prof("matmul");
  prof.AddFlops(2.0 * a.rows() * a.cols() * b.cols());
  Tape& tape = *a.tape();
  Matrix out;
  nn::MatMul(a.value(), b.value(), &out);
  const int ia = a.id();
  const int ib = b.id();
  return tape.NewNode(std::move(out), [ia, ib](Tape& t, int self) {
    const Matrix& g = t.grad(self);
    AddMatMulTransB(g, t.value(ib), &t.grad(ia));  // dA += g * B^T
    AddMatMulTransA(t.value(ia), g, &t.grad(ib));  // dB += A^T * g
  });
}

Tensor MatMulParam(Tensor x, Param& w) {
  OpScope prof("matmul_param");
  prof.AddFlops(2.0 * x.rows() * x.cols() * w.value.cols());
  Tape& tape = *x.tape();
  Matrix out;
  nn::MatMul(x.value(), w.value, &out);
  const int ix = x.id();
  Param* pw = &w;
  return tape.NewNode(std::move(out), [ix, pw](Tape& t, int self) {
    const Matrix& g = t.grad(self);
    AddMatMulTransB(g, pw->value, &t.grad(ix));
    AddMatMulTransA(t.value(ix), g, &pw->grad);
  });
}

Tensor Affine(Tensor x, Param& w, Param& b) {
  OpScope prof("affine");
  prof.AddFlops(2.0 * x.rows() * x.cols() * w.value.cols() +
                static_cast<double>(x.rows()) * w.value.cols());
  TRMMA_CHECK_EQ(b.value.rows(), 1);
  TRMMA_CHECK_EQ(b.value.cols(), w.value.cols());
  Tape& tape = *x.tape();
  Matrix out;
  nn::MatMul(x.value(), w.value, &out);
  for (int r = 0; r < out.rows(); ++r) {
    for (int c = 0; c < out.cols(); ++c) out.at(r, c) += b.value.at(0, c);
  }
  const int ix = x.id();
  Param* pw = &w;
  Param* pb = &b;
  return tape.NewNode(std::move(out), [ix, pw, pb](Tape& t, int self) {
    const Matrix& g = t.grad(self);
    AddMatMulTransB(g, pw->value, &t.grad(ix));
    AddMatMulTransA(t.value(ix), g, &pw->grad);
    for (int r = 0; r < g.rows(); ++r) {
      for (int c = 0; c < g.cols(); ++c) pb->grad.at(0, c) += g.at(r, c);
    }
  });
}

Tensor EmbeddingLookup(Tape& tape, Param& table,
                       const std::vector<int>& ids) {
  OpScope prof("embedding_lookup");
  const int d = table.value.cols();
  Matrix out(static_cast<int>(ids.size()), d);
  for (size_t r = 0; r < ids.size(); ++r) {
    TRMMA_CHECK_GE(ids[r], 0);
    TRMMA_CHECK_LT(ids[r], table.value.rows());
    const double* src = table.value.row(ids[r]);
    double* dst = out.row(static_cast<int>(r));
    for (int c = 0; c < d; ++c) dst[c] = src[c];
  }
  Param* pt = &table;
  std::vector<int> ids_copy = ids;
  return tape.NewNode(std::move(out),
                      [pt, ids_copy = std::move(ids_copy)](Tape& t, int self) {
                        const Matrix& g = t.grad(self);
                        for (size_t r = 0; r < ids_copy.size(); ++r) {
                          double* dst = pt->grad.row(ids_copy[r]);
                          const double* src = g.row(static_cast<int>(r));
                          for (int c = 0; c < g.cols(); ++c) dst[c] += src[c];
                        }
                      });
}

Tensor Add(Tensor a, Tensor b) {
  OpScope prof("add");
  prof.AddFlops(a.value().size());
  TRMMA_CHECK(a.value().SameShape(b.value()));
  Tape& tape = *a.tape();
  Matrix out = a.value();
  out.Axpy(1.0, b.value());
  const int ia = a.id();
  const int ib = b.id();
  return tape.NewNode(std::move(out), [ia, ib](Tape& t, int self) {
    const Matrix& g = t.grad(self);
    t.grad(ia).Axpy(1.0, g);
    t.grad(ib).Axpy(1.0, g);
  });
}

Tensor Sub(Tensor a, Tensor b) {
  OpScope prof("sub");
  prof.AddFlops(a.value().size());
  TRMMA_CHECK(a.value().SameShape(b.value()));
  Tape& tape = *a.tape();
  Matrix out = a.value();
  out.Axpy(-1.0, b.value());
  const int ia = a.id();
  const int ib = b.id();
  return tape.NewNode(std::move(out), [ia, ib](Tape& t, int self) {
    const Matrix& g = t.grad(self);
    t.grad(ia).Axpy(1.0, g);
    t.grad(ib).Axpy(-1.0, g);
  });
}

Tensor Mul(Tensor a, Tensor b) {
  OpScope prof("mul");
  prof.AddFlops(a.value().size());
  TRMMA_CHECK(a.value().SameShape(b.value()));
  Tape& tape = *a.tape();
  Matrix out = a.value();
  for (int i = 0; i < out.size(); ++i) out.data()[i] *= b.value().data()[i];
  const int ia = a.id();
  const int ib = b.id();
  return tape.NewNode(std::move(out), [ia, ib](Tape& t, int self) {
    const Matrix& g = t.grad(self);
    Matrix& ga = t.grad(ia);
    Matrix& gb = t.grad(ib);
    const Matrix& va = t.value(ia);
    const Matrix& vb = t.value(ib);
    for (int i = 0; i < g.size(); ++i) {
      ga.data()[i] += g.data()[i] * vb.data()[i];
      gb.data()[i] += g.data()[i] * va.data()[i];
    }
  });
}

Tensor Scale(Tensor a, double alpha) {
  OpScope prof("scale");
  prof.AddFlops(a.value().size());
  Tape& tape = *a.tape();
  Matrix out = a.value();
  for (int i = 0; i < out.size(); ++i) out.data()[i] *= alpha;
  const int ia = a.id();
  return tape.NewNode(std::move(out), [ia, alpha](Tape& t, int self) {
    t.grad(ia).Axpy(alpha, t.grad(self));
  });
}

Tensor OneMinus(Tensor a) {
  OpScope prof("one_minus");
  prof.AddFlops(a.value().size());
  Tape& tape = *a.tape();
  Matrix out = a.value();
  for (int i = 0; i < out.size(); ++i) out.data()[i] = 1.0 - out.data()[i];
  const int ia = a.id();
  return tape.NewNode(std::move(out), [ia](Tape& t, int self) {
    t.grad(ia).Axpy(-1.0, t.grad(self));
  });
}

Tensor Relu(Tensor a) {
  OpScope prof("relu");
  prof.AddFlops(a.value().size());
  Tape& tape = *a.tape();
  Matrix out = a.value();
  ReluInPlace(out.data(), out.size());
  const int ia = a.id();
  return tape.NewNode(std::move(out), [ia](Tape& t, int self) {
    const Matrix& g = t.grad(self);
    const Matrix& y = t.value(self);
    Matrix& ga = t.grad(ia);
    for (int i = 0; i < g.size(); ++i) {
      if (y.data()[i] > 0.0) ga.data()[i] += g.data()[i];
    }
  });
}

Tensor Sigmoid(Tensor a) {
  OpScope prof("sigmoid");
  prof.AddFlops(4.0 * a.value().size());
  Tape& tape = *a.tape();
  Matrix out = a.value();
  for (int i = 0; i < out.size(); ++i) {
    out.data()[i] = SigmoidScalar(out.data()[i]);
  }
  const int ia = a.id();
  return tape.NewNode(std::move(out), [ia](Tape& t, int self) {
    const Matrix& g = t.grad(self);
    const Matrix& y = t.value(self);
    Matrix& ga = t.grad(ia);
    for (int i = 0; i < g.size(); ++i) {
      ga.data()[i] += g.data()[i] * y.data()[i] * (1.0 - y.data()[i]);
    }
  });
}

Tensor Tanh(Tensor a) {
  OpScope prof("tanh");
  prof.AddFlops(4.0 * a.value().size());
  Tape& tape = *a.tape();
  Matrix out = a.value();
  for (int i = 0; i < out.size(); ++i) out.data()[i] = std::tanh(out.data()[i]);
  const int ia = a.id();
  return tape.NewNode(std::move(out), [ia](Tape& t, int self) {
    const Matrix& g = t.grad(self);
    const Matrix& y = t.value(self);
    Matrix& ga = t.grad(ia);
    for (int i = 0; i < g.size(); ++i) {
      ga.data()[i] += g.data()[i] * (1.0 - y.data()[i] * y.data()[i]);
    }
  });
}

Tensor SoftmaxRows(Tensor a) {
  OpScope prof("softmax_rows");
  prof.AddFlops(5.0 * a.value().size());
  Tape& tape = *a.tape();
  Matrix out = a.value();
  for (int r = 0; r < out.rows(); ++r) SoftmaxRow(out.row(r), out.cols());
  const int ia = a.id();
  return tape.NewNode(std::move(out), [ia](Tape& t, int self) {
    const Matrix& g = t.grad(self);
    const Matrix& y = t.value(self);
    Matrix& ga = t.grad(ia);
    for (int r = 0; r < g.rows(); ++r) {
      double dot = 0.0;
      for (int c = 0; c < g.cols(); ++c) dot += g.at(r, c) * y.at(r, c);
      for (int c = 0; c < g.cols(); ++c) {
        ga.at(r, c) += y.at(r, c) * (g.at(r, c) - dot);
      }
    }
  });
}

Tensor LayerNormRows(Tensor x, Param& gamma, Param& beta, double eps) {
  OpScope prof("layer_norm_rows");
  prof.AddFlops(8.0 * x.value().size());
  const int d = x.cols();
  TRMMA_CHECK_EQ(gamma.value.cols(), d);
  TRMMA_CHECK_EQ(beta.value.cols(), d);
  Tape& tape = *x.tape();
  const Matrix& in = x.value();
  Matrix out(in.rows(), d);
  // Cache the normalized activations and 1/σ per row for the backward pass.
  auto xhat = std::make_shared<Matrix>(in.rows(), d);
  auto inv_sigma = std::make_shared<std::vector<double>>(in.rows());
  for (int r = 0; r < in.rows(); ++r) {
    (*inv_sigma)[r] =
        LayerNormRow(in.row(r), d, gamma.value.data(), beta.value.data(), eps,
                     out.row(r), xhat->row(r));
  }
  const int ix = x.id();
  Param* pg = &gamma;
  Param* pb = &beta;
  return tape.NewNode(
      std::move(out), [ix, pg, pb, xhat, inv_sigma, d](Tape& t, int self) {
        const Matrix& g = t.grad(self);
        Matrix& gx = t.grad(ix);
        for (int r = 0; r < g.rows(); ++r) {
          double mean_gy = 0.0;
          double mean_gy_xhat = 0.0;
          for (int c = 0; c < d; ++c) {
            const double gy = g.at(r, c) * pg->value.at(0, c);
            mean_gy += gy;
            mean_gy_xhat += gy * xhat->at(r, c);
            pg->grad.at(0, c) += g.at(r, c) * xhat->at(r, c);
            pb->grad.at(0, c) += g.at(r, c);
          }
          mean_gy /= d;
          mean_gy_xhat /= d;
          const double inv = (*inv_sigma)[r];
          for (int c = 0; c < d; ++c) {
            const double gy = g.at(r, c) * pg->value.at(0, c);
            gx.at(r, c) +=
                (gy - mean_gy - xhat->at(r, c) * mean_gy_xhat) * inv;
          }
        }
      });
}

Tensor ConcatCols(Tensor a, Tensor b) {
  OpScope prof("concat_cols");
  TRMMA_CHECK_EQ(a.rows(), b.rows());
  Tape& tape = *a.tape();
  const int ca = a.cols();
  const int cb = b.cols();
  Matrix out(a.rows(), ca + cb);
  for (int r = 0; r < out.rows(); ++r) {
    for (int c = 0; c < ca; ++c) out.at(r, c) = a.value().at(r, c);
    for (int c = 0; c < cb; ++c) out.at(r, ca + c) = b.value().at(r, c);
  }
  const int ia = a.id();
  const int ib = b.id();
  return tape.NewNode(std::move(out), [ia, ib, ca, cb](Tape& t, int self) {
    const Matrix& g = t.grad(self);
    Matrix& ga = t.grad(ia);
    Matrix& gb = t.grad(ib);
    for (int r = 0; r < g.rows(); ++r) {
      for (int c = 0; c < ca; ++c) ga.at(r, c) += g.at(r, c);
      for (int c = 0; c < cb; ++c) gb.at(r, c) += g.at(r, ca + c);
    }
  });
}

Tensor ConcatRows(const std::vector<Tensor>& parts) {
  OpScope prof("concat_rows");
  TRMMA_CHECK(!parts.empty());
  Tape& tape = *parts[0].tape();
  const int cols = parts[0].cols();
  int rows = 0;
  for (const Tensor& p : parts) {
    TRMMA_CHECK_EQ(p.cols(), cols);
    rows += p.rows();
  }
  Matrix out(rows, cols);
  std::vector<int> ids;
  std::vector<int> offsets;
  int at = 0;
  for (const Tensor& p : parts) {
    ids.push_back(p.id());
    offsets.push_back(at);
    for (int r = 0; r < p.rows(); ++r) {
      for (int c = 0; c < cols; ++c) out.at(at + r, c) = p.value().at(r, c);
    }
    at += p.rows();
  }
  return tape.NewNode(std::move(out),
                      [ids, offsets](Tape& t, int self) {
                        const Matrix& g = t.grad(self);
                        for (size_t k = 0; k < ids.size(); ++k) {
                          Matrix& gp = t.grad(ids[k]);
                          for (int r = 0; r < gp.rows(); ++r) {
                            for (int c = 0; c < g.cols(); ++c) {
                              gp.at(r, c) += g.at(offsets[k] + r, c);
                            }
                          }
                        }
                      });
}

Tensor SliceCols(Tensor a, int start, int len) {
  OpScope prof("slice_cols");
  TRMMA_CHECK_GE(start, 0);
  TRMMA_CHECK_LE(start + len, a.cols());
  Tape& tape = *a.tape();
  Matrix out(a.rows(), len);
  for (int r = 0; r < out.rows(); ++r) {
    for (int c = 0; c < len; ++c) out.at(r, c) = a.value().at(r, start + c);
  }
  const int ia = a.id();
  return tape.NewNode(std::move(out), [ia, start, len](Tape& t, int self) {
    const Matrix& g = t.grad(self);
    Matrix& ga = t.grad(ia);
    for (int r = 0; r < g.rows(); ++r) {
      for (int c = 0; c < len; ++c) ga.at(r, start + c) += g.at(r, c);
    }
  });
}

Tensor SliceRows(Tensor a, int start, int len) {
  OpScope prof("slice_rows");
  TRMMA_CHECK_GE(start, 0);
  TRMMA_CHECK_LE(start + len, a.rows());
  Tape& tape = *a.tape();
  Matrix out(len, a.cols());
  for (int r = 0; r < len; ++r) {
    for (int c = 0; c < a.cols(); ++c) out.at(r, c) = a.value().at(start + r, c);
  }
  const int ia = a.id();
  return tape.NewNode(std::move(out), [ia, start, len](Tape& t, int self) {
    const Matrix& g = t.grad(self);
    Matrix& ga = t.grad(ia);
    for (int r = 0; r < len; ++r) {
      for (int c = 0; c < g.cols(); ++c) ga.at(start + r, c) += g.at(r, c);
    }
  });
}

Tensor Transpose(Tensor a) {
  OpScope prof("transpose");
  Tape& tape = *a.tape();
  Matrix out(a.cols(), a.rows());
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) out.at(c, r) = a.value().at(r, c);
  }
  const int ia = a.id();
  return tape.NewNode(std::move(out), [ia](Tape& t, int self) {
    const Matrix& g = t.grad(self);
    Matrix& ga = t.grad(ia);
    for (int r = 0; r < g.rows(); ++r) {
      for (int c = 0; c < g.cols(); ++c) ga.at(c, r) += g.at(r, c);
    }
  });
}

Tensor RepeatRows(Tensor a, int n) {
  OpScope prof("repeat_rows");
  TRMMA_CHECK_EQ(a.rows(), 1);
  Tape& tape = *a.tape();
  Matrix out(n, a.cols());
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < a.cols(); ++c) out.at(r, c) = a.value().at(0, c);
  }
  const int ia = a.id();
  return tape.NewNode(std::move(out), [ia, n](Tape& t, int self) {
    const Matrix& g = t.grad(self);
    Matrix& ga = t.grad(ia);
    for (int r = 0; r < n; ++r) {
      for (int c = 0; c < g.cols(); ++c) ga.at(0, c) += g.at(r, c);
    }
  });
}

Tensor MeanRows(Tensor a) {
  OpScope prof("mean_rows");
  prof.AddFlops(a.value().size());
  Tape& tape = *a.tape();
  const int n = a.rows();
  Matrix out(1, a.cols());
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < a.cols(); ++c) out.at(0, c) += a.value().at(r, c);
  }
  for (int c = 0; c < a.cols(); ++c) out.at(0, c) /= n;
  const int ia = a.id();
  return tape.NewNode(std::move(out), [ia, n](Tape& t, int self) {
    const Matrix& g = t.grad(self);
    Matrix& ga = t.grad(ia);
    for (int r = 0; r < n; ++r) {
      for (int c = 0; c < g.cols(); ++c) ga.at(r, c) += g.at(0, c) / n;
    }
  });
}

Tensor SumAll(Tensor a) {
  OpScope prof("sum_all");
  prof.AddFlops(a.value().size());
  Tape& tape = *a.tape();
  Matrix out(1, 1);
  out.at(0, 0) = a.value().Sum();
  const int ia = a.id();
  return tape.NewNode(std::move(out), [ia](Tape& t, int self) {
    const double g = t.grad(self).at(0, 0);
    Matrix& ga = t.grad(ia);
    for (int i = 0; i < ga.size(); ++i) ga.data()[i] += g;
  });
}

Tensor BceWithLogits(Tensor logits, Matrix targets) {
  OpScope prof("bce_with_logits");
  prof.AddFlops(6.0 * logits.value().size());
  TRMMA_CHECK(logits.value().SameShape(targets));
  Tape& tape = *logits.tape();
  const Matrix& z = logits.value();
  double total = 0.0;
  for (int i = 0; i < z.size(); ++i) {
    const double zi = z.data()[i];
    const double yi = targets.data()[i];
    total += std::max(zi, 0.0) - zi * yi + std::log1p(std::exp(-std::abs(zi)));
  }
  Matrix out(1, 1);
  out.at(0, 0) = total;
  const int iz = logits.id();
  auto y = std::make_shared<Matrix>(std::move(targets));
  return tape.NewNode(std::move(out), [iz, y](Tape& t, int self) {
    const double g = t.grad(self).at(0, 0);
    const Matrix& z = t.value(iz);
    Matrix& gz = t.grad(iz);
    for (int i = 0; i < z.size(); ++i) {
      gz.data()[i] += g * (SigmoidScalar(z.data()[i]) - y->data()[i]);
    }
  });
}

Tensor L1Loss(Tensor pred, Matrix targets) {
  OpScope prof("l1_loss");
  prof.AddFlops(2.0 * pred.value().size());
  TRMMA_CHECK(pred.value().SameShape(targets));
  Tape& tape = *pred.tape();
  const Matrix& p = pred.value();
  double total = 0.0;
  for (int i = 0; i < p.size(); ++i) {
    total += std::abs(p.data()[i] - targets.data()[i]);
  }
  Matrix out(1, 1);
  out.at(0, 0) = total;
  const int ip = pred.id();
  auto y = std::make_shared<Matrix>(std::move(targets));
  return tape.NewNode(std::move(out), [ip, y](Tape& t, int self) {
    const double g = t.grad(self).at(0, 0);
    const Matrix& p = t.value(ip);
    Matrix& gp = t.grad(ip);
    for (int i = 0; i < p.size(); ++i) {
      const double diff = p.data()[i] - y->data()[i];
      gp.data()[i] += g * (diff > 0 ? 1.0 : (diff < 0 ? -1.0 : 0.0));
    }
  });
}

Tensor SoftmaxCrossEntropy(Tensor logits, const std::vector<int>& targets) {
  OpScope prof("softmax_xent");
  prof.AddFlops(5.0 * logits.value().size());
  TRMMA_CHECK_EQ(static_cast<size_t>(logits.rows()), targets.size());
  Tape& tape = *logits.tape();
  const Matrix& z = logits.value();
  // Cache the row-wise softmax for the backward pass.
  auto probs = std::make_shared<Matrix>(z.rows(), z.cols());
  double total = 0.0;
  for (int r = 0; r < z.rows(); ++r) {
    double mx = z.at(r, 0);
    for (int c = 1; c < z.cols(); ++c) mx = std::max(mx, z.at(r, c));
    double sum = 0.0;
    for (int c = 0; c < z.cols(); ++c) {
      const double e = std::exp(z.at(r, c) - mx);
      probs->at(r, c) = e;
      sum += e;
    }
    for (int c = 0; c < z.cols(); ++c) probs->at(r, c) /= sum;
    TRMMA_CHECK_GE(targets[r], 0);
    TRMMA_CHECK_LT(targets[r], z.cols());
    total += -std::log(std::max(probs->at(r, targets[r]), 1e-300));
  }
  Matrix out(1, 1);
  out.at(0, 0) = total;
  const int iz = logits.id();
  auto tgt = std::make_shared<std::vector<int>>(targets);
  return tape.NewNode(std::move(out), [iz, probs, tgt](Tape& t, int self) {
    const double g = t.grad(self).at(0, 0);
    Matrix& gz = t.grad(iz);
    for (int r = 0; r < probs->rows(); ++r) {
      for (int c = 0; c < probs->cols(); ++c) {
        const double onehot = c == (*tgt)[r] ? 1.0 : 0.0;
        gz.at(r, c) += g * (probs->at(r, c) - onehot);
      }
    }
  });
}

}  // namespace ops
}  // namespace nn
}  // namespace trmma
