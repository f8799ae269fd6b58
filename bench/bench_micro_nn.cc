// Micro-benchmarks (google-benchmark) of the neural-network substrate:
// matmul kernel, transformer forward, GRU step, and a full forward+backward
// pass. Not a paper figure; used to track substrate regressions.
#include <benchmark/benchmark.h>

#include "bench_common.h"

#include "common/random.h"
#include "nn/gru.h"
#include "nn/ops.h"
#include "nn/transformer.h"

namespace trmma {
namespace nn {
namespace {

namespace ops = nn::ops;

Matrix RandomMatrix(int r, int c, uint64_t seed) {
  Rng rng(seed);
  Matrix m(r, c);
  for (int i = 0; i < m.size(); ++i) m.data()[i] = rng.Uniform(-1, 1);
  return m;
}

/// out += A·B at the (m, k, n) products the models run, the same shapes
/// perfbench reports as nn.matmul_gflops.<m>x<k>x<n>: the MMA candidate MLP
/// over k_c = 10 candidates (39 → 64, 64 → 32), its attention MLP
/// (64 → 64), the point transformer's feed-forward layer on a 32-point
/// trace, and a TRMMA DualFormer projection over 32 rows.
void BM_MatMul(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  const int n = static_cast<int>(state.range(2));
  Matrix a = RandomMatrix(m, k, 1);
  Matrix b = RandomMatrix(k, n, 2);
  Matrix out(m, n);
  for (auto _ : state) {
    AddMatMul(a, b, &out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.counters["FLOP/s"] = benchmark::Counter(
      2.0 * m * k * n, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_MatMul)
    ->ArgNames({"m", "k", "n"})
    ->Args({10, 39, 64})
    ->Args({10, 64, 32})
    ->Args({10, 64, 64})
    ->Args({32, 32, 64})
    ->Args({32, 32, 32});

void BM_TransformerForward(benchmark::State& state) {
  Rng rng(3);
  TransformerEncoder enc(32, 2, 64, 2, rng);
  Matrix x = RandomMatrix(static_cast<int>(state.range(0)), 32, 4);
  for (auto _ : state) {
    Tape tape;
    Tensor y = enc.Forward(ops::Input(tape, x));
    benchmark::DoNotOptimize(y.value().data());
  }
}
BENCHMARK(BM_TransformerForward)->Arg(8)->Arg(32)->Arg(64);

void BM_GruUnroll(benchmark::State& state) {
  Rng rng(5);
  GruCell gru(33, 32, rng);
  Matrix x = RandomMatrix(1, 33, 6);
  const int steps = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Tape tape;
    Tensor h = ops::Input(tape, Matrix(1, 32));
    for (int t = 0; t < steps; ++t) {
      h = gru.Step(ops::Input(tape, x), h);
    }
    benchmark::DoNotOptimize(h.value().data());
  }
}
BENCHMARK(BM_GruUnroll)->Arg(10)->Arg(40);

void BM_ForwardBackward(benchmark::State& state) {
  Rng rng(7);
  TransformerEncoder enc(32, 2, 64, 2, rng);
  Matrix x = RandomMatrix(24, 32, 8);
  for (auto _ : state) {
    Tape tape;
    Tensor y = enc.Forward(ops::Input(tape, x));
    Tensor loss = ops::SumAll(ops::Mul(y, y));
    tape.Backward(loss);
    enc.ZeroGrad();
    benchmark::DoNotOptimize(loss.value().at(0, 0));
  }
}
BENCHMARK(BM_ForwardBackward);

/// Profiler self-check, run after the google-benchmark loops so it cannot
/// distort their timings: profiles a batch of forward+backward passes and
/// reports which fraction of their wall time the per-op table accounts for.
/// The gap is tape bookkeeping and timer overhead; the acceptance bar for
/// the profiler is >= 0.9 at this workload size.
void RunOpProfilerCoverage() {
  obs::ScopedPhase phase("op_profiler_coverage");
  const bool was_enabled = OpProfiler::Enabled();
  OpProfiler::SetEnabled(true);
  OpProfiler::Global().Reset();
  Rng rng(7);
  TransformerEncoder enc(32, 2, 64, 2, rng);
  Matrix x = RandomMatrix(24, 32, 8);
  const double t0 = obs::NowMicros();
  for (int i = 0; i < 50; ++i) {
    const double pass_t0 = obs::NowMicros();
    Tape tape;
    Tensor y = enc.Forward(ops::Input(tape, x));
    Tensor loss = ops::SumAll(ops::Mul(y, y));
    tape.Backward(loss);
    enc.ZeroGrad();
    benchmark::DoNotOptimize(loss.value().at(0, 0));
    if (obs::MetricsEnabled()) {
      obs::MetricRegistry::Global()
          .GetHistogram("micro_nn.fwd_bwd_us")
          ->Observe(obs::NowMicros() - pass_t0);
    }
  }
  const double wall_us = obs::NowMicros() - t0;
  const double accounted_us = OpProfiler::Global().TotalAccountedMicros();
  const double coverage = wall_us > 0.0 ? accounted_us / wall_us : 0.0;
  std::printf("---- op profile (50x transformer fwd+bwd) ----\n%s",
              OpProfiler::Global().DumpString().c_str());
  std::printf("profiler coverage: %.1f%% of %.3f ms wall\n", coverage * 100.0,
              wall_us / 1e3);
  obs::RunReport::Global().SetFingerprintNumber("op_profile.coverage",
                                                coverage);
  OpProfiler::SetEnabled(was_enabled);
}

}  // namespace
}  // namespace nn
}  // namespace trmma

int main(int argc, char** argv) {
  trmma::bench::BenchRun run("micro_nn");
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  trmma::nn::RunOpProfilerCoverage();
  return 0;
}
