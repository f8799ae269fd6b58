#include "recovery/seq2seq.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "nn/ops.h"
#include "nn/telemetry.h"

namespace trmma {

using nn::Tensor;
namespace ops = nn::ops;

Seq2SeqRecovery::Seq2SeqRecovery(const RoadNetwork& network,
                                 const SegmentRTree& index,
                                 const Seq2SeqConfig& config,
                                 std::string label)
    : network_(network), index_(index), config_(config),
      label_(std::move(label)), grid_(network, config.grid_cell_m),
      init_rng_(config.seed),
      cell_emb_(grid_.num_cells(), config.dh, init_rng_),
      input_fc_(3, config.dh, init_rng_),
      encoder_gru_(config.dh, config.dh, init_rng_),
      seg_table_(network.num_segments(), config.dh, init_rng_),
      decoder_gru_(config.dh + 2, config.dh, init_rng_),
      output_fc_(config.dh, network.num_segments(), init_rng_),
      ratio_mlp_(config.dh, config.dh, 1, init_rng_) {
  AddChild(&cell_emb_);
  AddChild(&input_fc_);
  AddChild(&encoder_gru_);
  if (config.transformer_encoder) {
    encoder_trans_ = std::make_unique<nn::TransformerEncoder>(
        config.dh, config.trans_heads, config.trans_ffn, config.trans_layers,
        init_rng_);
    AddChild(encoder_trans_.get());
  }
  AddChild(&seg_table_);
  AddChild(&decoder_gru_);
  AddChild(&output_fc_);
  AddChild(&ratio_mlp_);
  optimizer_ = std::make_unique<nn::Adam>(Parameters(), config.lr);
}

Tensor Seq2SeqRecovery::Encode(nn::Tape& tape, const Trajectory& sparse) {
  // Grid-cell embeddings of the GPS points (the family's discretization)
  // plus continuous features.
  std::vector<int> cells(sparse.size());
  for (int i = 0; i < sparse.size(); ++i) {
    cells[i] = grid_.CellOf(sparse.points[i].pos);
  }
  nn::Matrix features(sparse.size(), 3);
  NormalizedPointFeatures(network_, sparse, features.data(), 3);
  Tensor x = ops::Add(
      cell_emb_.Forward(tape, cells),
      input_fc_.Forward(ops::Input(tape, std::move(features))));
  if (config_.transformer_encoder) {
    return ops::MeanRows(encoder_trans_->Forward(x));
  }
  Tensor h = ops::Input(tape, nn::Matrix(1, config_.dh));
  for (int i = 0; i < sparse.size(); ++i) {
    h = encoder_gru_.Step(ops::SliceRows(x, i, 1), h);
  }
  return h;
}

void Seq2SeqRecovery::DecodeStep(nn::Tape& tape, Tensor h_in,
                                 SegmentId prev_segment, double prev_ratio,
                                 double target_time_frac, Tensor* h_out,
                                 Tensor* logits, Tensor* ratio) {
  nn::Matrix r_in(1, 2);
  r_in.at(0, 0) = prev_ratio;
  r_in.at(0, 1) = target_time_frac;
  Tensor x = ops::ConcatCols(seg_table_.Forward(tape, {prev_segment}),
                             ops::Input(tape, std::move(r_in)));
  *h_out = decoder_gru_.Step(x, h_in);
  *logits = output_fc_.Forward(*h_out);  // 1 x |E|: full-network prediction
  *ratio = ops::Sigmoid(ratio_mlp_.Forward(*h_out));
}

double Seq2SeqRecovery::TrainEpoch(const Dataset& dataset, Rng& rng) {
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
    if (sample.sparse.size() < 2 || sample.truth.size() < 2) continue;
    Tensor h = Encode(tape, sample.sparse);
    const double t_begin = sample.sparse.points.front().t;
    const double t_span =
        std::max(sample.sparse.points.back().t - t_begin, 1e-9);

    Tensor loss;
    int count = 0;
    for (size_t j = 1; j < sample.truth.size(); ++j) {
      const MatchedPoint& prev = sample.truth[j - 1];
      const MatchedPoint& cur = sample.truth[j];
      Tensor h_next;
      Tensor logits;
      Tensor ratio;
      DecodeStep(tape, h, prev.segment, prev.ratio,
                 (cur.t - t_begin) / t_span, &h_next, &logits, &ratio);
      h = h_next;
      Tensor seg_loss = ops::SoftmaxCrossEntropy(logits, {cur.segment});
      nn::Matrix target(1, 1);
      target.at(0, 0) = cur.ratio;
      Tensor step_loss = ops::Add(
          seg_loss, ops::Scale(ops::L1Loss(ratio, std::move(target)),
                               config_.lambda));
      loss = count == 0 ? step_loss : ops::Add(loss, step_loss);
      ++count;
    }
    loss = ops::Scale(loss, 1.0 / count);
    total_loss += loss.value().at(0, 0) * count;
    total_points += count;
    batch_loss += loss.value().at(0, 0) * count;
    batch_points += count;
    tape.Backward(loss);
    tape.Clear();
    if (++in_batch == config_.batch_size) {
      optimizer_->Step();
      nn::LogTrainStep("seq2seq", *optimizer_,
                       batch_points > 0 ? batch_loss / batch_points : 0.0,
                       batch_points, step_watch.LapMillis() / 1e3, epoch);
      in_batch = 0;
      batch_loss = 0.0;
      batch_points = 0;
    }
  }
  if (in_batch > 0) {
    optimizer_->Step();
    nn::LogTrainStep("seq2seq", *optimizer_,
                     batch_points > 0 ? batch_loss / batch_points : 0.0,
                     batch_points, step_watch.LapMillis() / 1e3, epoch);
  }
  return total_points > 0 ? total_loss / total_points : 0.0;
}

MatchedTrajectory Seq2SeqRecovery::Recover(const Trajectory& sparse,
                                           double epsilon) {
  MatchedTrajectory out;
  if (sparse.empty()) return out;
  nn::Tape tape;
  Tensor h = Encode(tape, sparse);

  // Seed with the nearest-segment projection of the first GPS point.
  const Vec2 xy0 = network_.projection().ToMeters(sparse.points.front().pos);
  const auto first_hits = index_.KNearest(xy0, 1);
  TRMMA_CHECK(!first_hits.empty());
  MatchedPoint prev{first_hits[0].segment, first_hits[0].ratio,
                    sparse.points.front().t};
  out.push_back(prev);
  const double t_begin = sparse.points.front().t;
  const double t_span = std::max(sparse.points.back().t - t_begin, 1e-9);

  for (int i = 0; i + 1 < sparse.size(); ++i) {
    const int steps = NumMissingPoints(sparse.points[i].t,
                                       sparse.points[i + 1].t, epsilon) +
                      1;  // missing points plus the observation itself
    for (int j = 1; j <= steps; ++j) {
      const double t_j = sparse.points[i].t + j * epsilon;
      Tensor h_next;
      Tensor logits;
      Tensor ratio;
      DecodeStep(tape, h, prev.segment, prev.ratio,
                 (t_j - t_begin) / t_span, &h_next, &logits, &ratio);
      h = h_next;
      int best = -1;
      if (config_.constraint_hops > 0) {
        // MTrajRec's constraint mask: argmax over segments reachable from
        // the previous prediction within constraint_hops hops.
        std::vector<SegmentId> frontier = {prev.segment};
        std::vector<SegmentId> reachable = {prev.segment};
        for (int hop = 0; hop < config_.constraint_hops; ++hop) {
          std::vector<SegmentId> next_frontier;
          for (SegmentId e : frontier) {
            for (SegmentId nx : network_.NextSegments(e)) {
              reachable.push_back(nx);
              next_frontier.push_back(nx);
            }
          }
          frontier = std::move(next_frontier);
        }
        for (SegmentId c : reachable) {
          if (best < 0 ||
              logits.value().at(0, c) > logits.value().at(0, best)) {
            best = c;
          }
        }
      }
      if (best < 0) {
        best = 0;
        for (int c = 1; c < logits.cols(); ++c) {
          if (logits.value().at(0, c) > logits.value().at(0, best)) best = c;
        }
      }
      MatchedPoint a;
      a.segment = best;
      a.ratio = std::clamp(ratio.value().at(0, 0), 0.0, 0.999999);
      a.t = t_j;
      if (j == steps) {
        // Observation step: condition on the observed GPS point (the full
        // MTrajRec attends to encoder states; the lite version snaps to
        // the observation's nearest-segment projection).
        const Vec2 xy =
            network_.projection().ToMeters(sparse.points[i + 1].pos);
        const auto hits = index_.KNearest(xy, 1);
        a.segment = hits[0].segment;
        a.ratio = hits[0].ratio;
      }
      out.push_back(a);
      prev = a;
    }
  }
  return out;
}

}  // namespace trmma
