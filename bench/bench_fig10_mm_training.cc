// Reproduces paper Fig. 10: map-matching training time per epoch. The two
// one-off precomputations are reported separately, in seconds: FMM's UBODT
// (FMM has no training) and the Node2Vec pre-training that initialises
// MMA's segment embeddings (paper Eq. 1). Expected shape: MMA and LHMM train
// fast; DeepMM pays for its |E|-sized softmax, most visibly on BJ.
#include "bench/bench_common.h"
#include "common/stopwatch.h"

namespace trmma {
namespace {

void Run() {
  const bench::BenchScale scale = bench::GetScale();
  bench::PrintBanner("Fig. 10: map matching training time (s / epoch)");
  PrintHeader("method", CityNames());

  std::vector<double> lhmm_row;
  std::vector<double> deepmm_row;
  std::vector<double> mma_row;
  std::vector<double> ubodt_row;
  std::vector<double> node2vec_row;
  for (const std::string& city : CityNames()) {
    Dataset ds = bench::BuildBenchDataset(city, scale);
    StackConfig config;
    ExperimentStack stack = BuildStack(ds, config);
    // The stack build includes both one-off precomputations; redo each alone
    // for a clean figure of its cost.
    Stopwatch watch;
    Ubodt ubodt(*ds.network, config.ubodt_delta_m);
    ubodt_row.push_back(watch.ElapsedSeconds());
    watch.Restart();
    Rng n2v_rng(config.seed);
    TrainNode2Vec(*ds.network, stack.config.node2vec, n2v_rng);
    node2vec_row.push_back(watch.ElapsedSeconds());

    lhmm_row.push_back(TrainLhmm(stack, 2).seconds_per_epoch);
    deepmm_row.push_back(TrainDeepMm(stack, 2).seconds_per_epoch);
    mma_row.push_back(TrainMma(stack, 2).seconds_per_epoch);
  }
  PrintRow("LHMM", lhmm_row, 16, 10, 3);
  PrintRow("DeepMM", deepmm_row, 16, 10, 3);
  PrintRow("MMA", mma_row, 16, 10, 3);
  PrintRow("FMM(ubodt)", ubodt_row, 16, 10, 3);
  PrintRow("MMA(node2vec)", node2vec_row, 16, 10, 3);
}

}  // namespace
}  // namespace trmma

int main() {
  trmma::bench::BenchRun run("fig10_mm_training");
  trmma::Run();
  return 0;
}
