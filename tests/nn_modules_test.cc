#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>

#include "common/random.h"
#include "nn/attention.h"
#include "nn/gradcheck.h"
#include "nn/gru.h"
#include "nn/layers.h"
#include "nn/serialize.h"
#include "nn/transformer.h"

namespace trmma {
namespace nn {
namespace {

namespace ops = nn::ops;

Matrix RandomInput(int r, int c, uint64_t seed) {
  Rng rng(seed);
  Matrix m(r, c);
  for (int i = 0; i < m.size(); ++i) m.data()[i] = rng.Uniform(-1, 1);
  return m;
}

TEST(LinearTest, ShapesAndParamCount) {
  Rng rng(1);
  Linear fc(4, 3, rng);
  EXPECT_EQ(fc.NumParameters(), 4 * 3 + 3);
  Tape tape;
  Tensor y = fc.Forward(ops::Input(tape, RandomInput(5, 4, 2)));
  EXPECT_EQ(y.rows(), 5);
  EXPECT_EQ(y.cols(), 3);
}

TEST(MlpTest, GradientCheck) {
  Rng rng(3);
  Mlp mlp(3, 8, 2, rng);
  auto loss_fn = [&](Tape& tape) {
    Tensor x = ops::Input(tape, RandomInput(4, 3, 4));
    return ops::SumAll(ops::Sigmoid(mlp.Forward(x)));
  };
  auto result = CheckGradients(loss_fn, mlp.Parameters(), 1e-6, 1e-4, 8);
  EXPECT_TRUE(result.ok) << result.max_rel_error;
}

TEST(LayerNormModuleTest, OutputShape) {
  LayerNorm norm(6);
  Tape tape;
  Tensor y = norm.Forward(ops::Input(tape, RandomInput(3, 6, 5)));
  EXPECT_EQ(y.rows(), 3);
  EXPECT_EQ(y.cols(), 6);
}

TEST(EmbeddingModuleTest, PretrainedLoad) {
  Rng rng(6);
  Embedding emb(5, 3, rng);
  Matrix table(5, 3, 1.5);
  emb.LoadPretrained(table);
  Tape tape;
  Tensor e = emb.Forward(tape, {0, 4});
  EXPECT_DOUBLE_EQ(e.value().at(1, 2), 1.5);
}

TEST(AttentionTest, SelfAttentionShape) {
  Rng rng(7);
  MultiHeadAttention attn(8, 2, rng);
  Tape tape;
  Tensor x = ops::Input(tape, RandomInput(5, 8, 8));
  Tensor y = attn.Forward(x, x);
  EXPECT_EQ(y.rows(), 5);
  EXPECT_EQ(y.cols(), 8);
}

TEST(AttentionTest, CrossAttentionShape) {
  Rng rng(9);
  MultiHeadAttention attn(8, 4, rng);
  Tape tape;
  Tensor q = ops::Input(tape, RandomInput(3, 8, 10));
  Tensor k = ops::Input(tape, RandomInput(7, 8, 11));
  Tensor y = attn.Forward(q, k);
  EXPECT_EQ(y.rows(), 3);
}

TEST(AttentionTest, GradientCheck) {
  Rng rng(12);
  MultiHeadAttention attn(4, 2, rng);
  auto loss_fn = [&](Tape& tape) {
    Tensor x = ops::Input(tape, RandomInput(3, 4, 13));
    return ops::SumAll(ops::Tanh(attn.Forward(x, x)));
  };
  auto result = CheckGradients(loss_fn, attn.Parameters(), 1e-6, 1e-4, 6);
  EXPECT_TRUE(result.ok) << result.max_rel_error;
}

TEST(TransformerTest, EncoderPreservesShape) {
  Rng rng(14);
  TransformerEncoder enc(8, 2, 16, 2, rng);
  Tape tape;
  Tensor y = enc.Forward(ops::Input(tape, RandomInput(6, 8, 15)));
  EXPECT_EQ(y.rows(), 6);
  EXPECT_EQ(y.cols(), 8);
}

TEST(TransformerTest, PositionalEncodingValues) {
  const std::vector<double> freq = PositionalFrequencies(6);
  Matrix pe = SinusoidalPositionalEncoding(4, 6, freq.data());
  EXPECT_DOUBLE_EQ(pe.at(0, 0), 0.0);  // sin(0)
  EXPECT_DOUBLE_EQ(pe.at(0, 1), 1.0);  // cos(0)
  EXPECT_NEAR(pe.at(1, 0), std::sin(1.0), 1e-12);
  // Position matters: different rows differ.
  EXPECT_NE(pe.at(1, 0), pe.at(2, 0));

  // The frequencies are computed once per encoder; every element must keep
  // the bits of the per-element form, which evaluated pow for each one.
  auto per_element = [](int pos, int dim, double* out) {
    for (int i = 0; i < dim; i += 2) {
      const double f = std::pow(10000.0, -static_cast<double>(i) / dim);
      out[i] = std::sin(pos * f);
      if (i + 1 < dim) out[i + 1] = std::cos(pos * f);
    }
  };
  for (int dim : {1, 6, 16, 32, 33}) {
    const std::vector<double> f = PositionalFrequencies(dim);
    ASSERT_EQ(f.size(), static_cast<size_t>((dim + 1) / 2));
    const Matrix table = SinusoidalPositionalEncoding(500, dim, f.data());
    std::vector<double> want(dim);
    std::vector<double> got(dim);
    for (int pos = 0; pos < 500; ++pos) {
      per_element(pos, dim, want.data());
      PositionalEncodingRow(pos, dim, f.data(), got.data());
      for (int i = 0; i < dim; ++i) {
        ASSERT_EQ(std::bit_cast<uint64_t>(got[i]),
                  std::bit_cast<uint64_t>(want[i]))
            << "dim " << dim << " pos " << pos << " col " << i;
        ASSERT_EQ(std::bit_cast<uint64_t>(table.at(pos, i)),
                  std::bit_cast<uint64_t>(want[i]))
            << "dim " << dim << " pos " << pos << " col " << i;
      }
    }
  }
}

TEST(TransformerTest, OrderSensitivity) {
  // The encoder must distinguish a sequence from its reverse (positional
  // encodings at work).
  Rng rng(16);
  TransformerEncoder enc(4, 2, 8, 1, rng);
  Matrix x = RandomInput(4, 4, 17);
  Matrix x_rev(4, 4);
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) x_rev.at(r, c) = x.at(3 - r, c);
  }
  Tape tape;
  Tensor y1 = enc.Forward(ops::Input(tape, x));
  Tensor y2 = enc.Forward(ops::Input(tape, x_rev));
  // Row 0 of y1 corresponds to x row 0; row 3 of y2 is the same token at a
  // different position. They should differ.
  double diff = 0;
  for (int c = 0; c < 4; ++c) {
    diff += std::abs(y1.value().at(0, c) - y2.value().at(3, c));
  }
  EXPECT_GT(diff, 1e-6);
}

TEST(TransformerTest, LayerGradientCheck) {
  Rng rng(18);
  TransformerLayer layer(4, 2, 8, rng);
  auto loss_fn = [&](Tape& tape) {
    Tensor x = ops::Input(tape, RandomInput(3, 4, 19));
    return ops::SumAll(ops::Tanh(layer.Forward(x)));
  };
  auto result = CheckGradients(loss_fn, layer.Parameters(), 1e-6, 2e-4, 4);
  EXPECT_TRUE(result.ok) << result.max_rel_error;
}

TEST(GruTest, StepShapesAndState) {
  Rng rng(20);
  GruCell gru(3, 5, rng);
  Tape tape;
  Tensor x = ops::Input(tape, RandomInput(1, 3, 21));
  Tensor h0 = ops::Input(tape, Matrix(1, 5));
  Tensor h1 = gru.Step(x, h0);
  EXPECT_EQ(h1.rows(), 1);
  EXPECT_EQ(h1.cols(), 5);
  // State must stay bounded (gating).
  for (int c = 0; c < 5; ++c) {
    EXPECT_LT(std::abs(h1.value().at(0, c)), 1.0);
  }
}

TEST(GruTest, ZeroUpdateGateKeepsState) {
  // With z ~ 0 (forced by huge negative bias), h' ~ h.
  Rng rng(22);
  GruCell gru(2, 3, rng);
  auto params = gru.Parameters();
  // Parameter order: wz, uz, bz, ... (see GruCell constructor).
  params[2]->value.Fill(-50.0);  // bz -> z = sigmoid(-50) ~ 0
  Tape tape;
  Tensor x = ops::Input(tape, RandomInput(1, 2, 23));
  Matrix h_init(1, 3);
  h_init.at(0, 0) = 0.3;
  h_init.at(0, 1) = -0.2;
  h_init.at(0, 2) = 0.8;
  Tensor h1 = gru.Step(x, ops::Input(tape, h_init));
  for (int c = 0; c < 3; ++c) {
    EXPECT_NEAR(h1.value().at(0, c), h_init.at(0, c), 1e-6);
  }
}

TEST(GruTest, UnrolledGradientCheck) {
  Rng rng(24);
  GruCell gru(2, 3, rng);
  auto loss_fn = [&](Tape& tape) {
    Tensor h = ops::Input(tape, Matrix(1, 3));
    for (int t = 0; t < 4; ++t) {
      Tensor x = ops::Input(tape, RandomInput(1, 2, 30 + t));
      h = gru.Step(x, h);
    }
    return ops::SumAll(ops::Mul(h, h));
  };
  auto result = CheckGradients(loss_fn, gru.Parameters(), 1e-6, 1e-4, 4);
  EXPECT_TRUE(result.ok) << result.max_rel_error;
}

TEST(ModuleTest, ParameterRegistryCoversChildren) {
  Rng rng(26);
  Mlp mlp(4, 8, 2, rng);
  // fc1: 4*8+8, fc2: 8*2+2
  EXPECT_EQ(mlp.NumParameters(), 32 + 8 + 16 + 2);
  EXPECT_EQ(mlp.Parameters().size(), 4u);
  mlp.ZeroGrad();
  for (Param* p : mlp.Parameters()) {
    EXPECT_DOUBLE_EQ(p->grad.Sum(), 0.0);
  }
}

TEST(SerializeTest, SaveLoadRoundTrip) {
  Rng rng(28);
  Mlp a(3, 4, 2, rng);
  Mlp b(3, 4, 2, rng);  // different weights (rng advanced)
  const std::string path = testing::TempDir() + "/trmma_params_test.bin";
  ASSERT_TRUE(SaveParameters(a.Parameters(), path).ok());
  ASSERT_TRUE(LoadParameters(b.Parameters(), path).ok());
  auto pa = a.Parameters();
  auto pb = b.Parameters();
  for (size_t i = 0; i < pa.size(); ++i) {
    for (int j = 0; j < pa[i]->value.size(); ++j) {
      EXPECT_DOUBLE_EQ(pa[i]->value.data()[j], pb[i]->value.data()[j]);
    }
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, ShapeMismatchFails) {
  Rng rng(30);
  Mlp a(3, 4, 2, rng);
  Mlp wrong(3, 5, 2, rng);
  const std::string path = testing::TempDir() + "/trmma_params_bad.bin";
  ASSERT_TRUE(SaveParameters(a.Parameters(), path).ok());
  EXPECT_FALSE(LoadParameters(wrong.Parameters(), path).ok());
  std::remove(path.c_str());
}

TEST(SerializeTest, MissingFileFails) {
  Rng rng(31);
  Linear fc(2, 2, rng);
  EXPECT_FALSE(LoadParameters(fc.Parameters(), "/nonexistent/params").ok());
}

}  // namespace
}  // namespace nn
}  // namespace trmma
