#include "mm/deep_mm_lite.h"

#include "common/logging.h"
#include "common/stopwatch.h"
#include "nn/ops.h"
#include "nn/telemetry.h"

namespace trmma {

using nn::Tensor;
namespace ops = nn::ops;

DeepMmLiteMatcher::DeepMmLiteMatcher(const RoadNetwork& network,
                                     const DeepMmConfig& config)
    : network_(network), config_(config), grid_(network, config.grid_cell_m),
      init_rng_(config.seed),
      cell_emb_(grid_.num_cells(), config.hidden_dim, init_rng_),
      input_fc_(3, config.hidden_dim, init_rng_),
      gru_(config.hidden_dim, config.hidden_dim, init_rng_),
      output_fc_(config.hidden_dim, network.num_segments(), init_rng_) {
  AddChild(&cell_emb_);
  AddChild(&input_fc_);
  AddChild(&gru_);
  AddChild(&output_fc_);
  optimizer_ = std::make_unique<nn::Adam>(Parameters(), config.lr);
}

Tensor DeepMmLiteMatcher::EncodeHidden(nn::Tape& tape,
                                       const Trajectory& traj) {
  // DeepMM embeds the grid cell of every GPS point; continuous features
  // are added on top.
  std::vector<int> cells(traj.size());
  for (int i = 0; i < traj.size(); ++i) {
    cells[i] = grid_.CellOf(traj.points[i].pos);
  }
  nn::Matrix features(traj.size(), 3);
  NormalizedPointFeatures(network_, traj, features.data(), 3);
  Tensor x = ops::Add(
      cell_emb_.Forward(tape, cells),
      input_fc_.Forward(ops::Input(tape, std::move(features))));
  Tensor h = ops::Input(tape, nn::Matrix(1, config_.hidden_dim));
  std::vector<Tensor> hiddens;
  hiddens.reserve(traj.size());
  for (int i = 0; i < traj.size(); ++i) {
    h = gru_.Step(ops::SliceRows(x, i, 1), h);
    hiddens.push_back(h);
  }
  return ops::ConcatRows(hiddens);
}

double DeepMmLiteMatcher::TrainEpoch(const Dataset& dataset, Rng& rng) {
  std::vector<int> order = dataset.train_idx;
  rng.Shuffle(order);
  double total_loss = 0.0;
  int64_t total_points = 0;
  int in_batch = 0;
  double batch_loss = 0.0;
  int64_t batch_points = 0;
  Stopwatch step_watch;
  const int64_t epoch = epochs_trained_++;
  nn::Tape tape;
  for (int idx : order) {
    const TrajectorySample& sample = dataset.samples[idx];
    if (sample.sparse.size() < 2) continue;
    Tensor hidden = EncodeHidden(tape, sample.sparse);
    Tensor logits = output_fc_.Forward(hidden);  // len x |E|
    std::vector<int> targets(sample.sparse.size());
    for (size_t i = 0; i < targets.size(); ++i) {
      targets[i] = sample.truth[sample.sparse_indices[i]].segment;
    }
    Tensor loss = ops::Scale(ops::SoftmaxCrossEntropy(logits, targets),
                             1.0 / targets.size());
    total_loss += loss.value().at(0, 0) * targets.size();
    total_points += static_cast<int64_t>(targets.size());
    batch_loss += loss.value().at(0, 0) * targets.size();
    batch_points += static_cast<int64_t>(targets.size());
    tape.Backward(loss);
    tape.Clear();
    if (++in_batch == config_.batch_size) {
      optimizer_->Step();
      nn::LogTrainStep("deep_mm_lite", *optimizer_,
                       batch_points > 0 ? batch_loss / batch_points : 0.0,
                       batch_points, step_watch.LapMillis() / 1e3, epoch);
      in_batch = 0;
      batch_loss = 0.0;
      batch_points = 0;
    }
  }
  if (in_batch > 0) {
    optimizer_->Step();
    nn::LogTrainStep("deep_mm_lite", *optimizer_,
                     batch_points > 0 ? batch_loss / batch_points : 0.0,
                     batch_points, step_watch.LapMillis() / 1e3, epoch);
  }
  return total_points > 0 ? total_loss / total_points : 0.0;
}

std::vector<SegmentId> DeepMmLiteMatcher::MatchPoints(const Trajectory& traj) {
  std::vector<SegmentId> out(traj.size(), kInvalidSegment);
  if (traj.empty()) return out;
  nn::Tape tape;
  Tensor hidden = EncodeHidden(tape, traj);
  Tensor logits = output_fc_.Forward(hidden);
  for (int i = 0; i < traj.size(); ++i) {
    int best = 0;
    for (int c = 1; c < logits.cols(); ++c) {
      if (logits.value().at(i, c) > logits.value().at(i, best)) best = c;
    }
    out[i] = best;
  }
  return out;
}

}  // namespace trmma
