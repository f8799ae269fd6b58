#include "mm/mma.h"

#include <algorithm>
#include <cmath>

#include "common/deadline.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "nn/kernel.h"
#include "nn/ops.h"
#include "nn/scratch.h"
#include "nn/serialize.h"
#include "nn/telemetry.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"

namespace trmma {

using nn::Tensor;

namespace {

/// Geometric features of a candidate, after its W^C embedding in the
/// candidate MLP's input. Besides the paper's four directional cosines,
/// each candidate carries its perpendicular distance, projection ratio and
/// rank — geometric signals the paper's id embeddings absorb from millions
/// of trips (DESIGN.md §2).
constexpr int kCandidateFeatures = 7;

/// Writes the features of the candidate at `rank` into a zeroed `out`.
void CandidateFeatures(const MmaConfig& config, const Candidate& cand,
                       int rank, double* out) {
  if (config.use_directional) {
    for (int f = 0; f < 4; ++f) out[f] = cand.cosine[f];
  }
  out[4] = cand.distance / 30.0;
  out[5] = cand.ratio;
  out[6] = static_cast<double>(rank) / config.kc;
}

/// Repairs empty candidate columns (possible only on a segmentless network
/// or fully corrupt coordinates) by borrowing the nearest non-empty
/// neighbor column, so ForwardLogits always sees at least one candidate
/// per point. Returns false when every column is empty — the trajectory
/// cannot be matched at all and the caller must degrade.
bool EnsureNonEmptyCandidates(std::vector<std::vector<Candidate>>* candidates) {
  auto& cols = *candidates;
  const int n = static_cast<int>(cols.size());
  int first_nonempty = -1;
  for (int i = 0; i < n; ++i) {
    if (!cols[i].empty()) {
      first_nonempty = i;
      break;
    }
  }
  if (first_nonempty < 0) return false;
  for (int i = 0; i < n; ++i) {
    if (cols[i].empty()) {
      cols[i] = i > 0 && !cols[i - 1].empty() ? cols[i - 1]
                                              : cols[first_nonempty];
    }
  }
  return true;
}

/// x += bias on every row, then ReLU: the rest of a hidden layer whose
/// product is already in x.
void AddBiasRelu(double* x, int rows, int cols, const double* bias) {
  for (int r = 0; r < rows; ++r) {
    double* row = x + static_cast<size_t>(r) * cols;
    for (int c = 0; c < cols; ++c) row[c] += bias[c];
  }
  nn::ReluInPlace(x, rows * cols);
}

}  // namespace

MmaMatcher::MmaMatcher(const RoadNetwork& network, const SegmentRTree& index,
                       const MmaConfig& config)
    : network_(network), index_(index), config_(config),
      init_rng_(config.seed),
      seg_emb_(network.num_segments(), config.d0, init_rng_),
      cand_mlp_(config.d0 + kCandidateFeatures, config.d1, config.d2,
                init_rng_),
      point_fc_(3, config.d2, init_rng_),
      point_trans_(config.d2, config.trans_heads, config.trans_ffn,
                   config.trans_layers, init_rng_),
      attn_mlp_(2 * config.d2, config.d3, 1, init_rng_) {
  AddChild(&seg_emb_);
  AddChild(&cand_mlp_);
  AddChild(&point_fc_);
  AddChild(&point_trans_);
  AddChild(&attn_mlp_);
  optimizer_ = std::make_unique<nn::Adam>(Parameters(), config.lr);
}

void MmaMatcher::LoadPretrainedSegmentEmbeddings(const nn::Matrix& table) {
  seg_emb_.LoadPretrained(table);
}

std::vector<Tensor> MmaMatcher::ForwardLogits(
    nn::Tape& tape, const Trajectory& traj,
    const std::vector<std::vector<Candidate>>& candidates) {
  TRMMA_SPAN("mma.forward");
  namespace ops = nn::ops;
  // Point sequence embeddings z^(2) via FC + transformer (Eq. 3).
  nn::Matrix features(traj.size(), 3);
  NormalizedPointFeatures(network_, traj, features.data(), 3);
  Tensor z0 = ops::Input(tape, std::move(features));
  Tensor z2 = point_trans_.Forward(point_fc_.Forward(z0));

  std::vector<Tensor> logits;
  logits.reserve(traj.size());
  for (int i = 0; i < traj.size(); ++i) {
    const auto& cands = candidates[i];
    // Invariant enforced by EnsureNonEmptyCandidates at every call site.
    TRMMA_CHECK(!cands.empty());
    const int k = static_cast<int>(cands.size());

    // Candidate embeddings c_j (Eq. 1-2).
    std::vector<int> ids(k);
    nn::Matrix feats(k, kCandidateFeatures);
    for (int j = 0; j < k; ++j) {
      ids[j] = cands[j].segment;
      CandidateFeatures(config_, cands[j], j, feats.row(j));
    }
    Tensor emb = seg_emb_.Forward(tape, ids);
    Tensor cmat = cand_mlp_.Forward(
        ops::ConcatCols(emb, ops::Input(tape, std::move(feats))));

    // Point embedding p_i with candidate-context attention (Eq. 7-8).
    Tensor zi = ops::SliceRows(z2, i, 1);
    Tensor point;
    if (config_.use_candidate_context) {
      Tensor scores = attn_mlp_.Forward(
          ops::ConcatCols(ops::RepeatRows(zi, k), cmat));     // k x 1
      Tensor alpha = ops::SoftmaxRows(ops::Transpose(scores));  // 1 x k
      point = ops::Add(zi, ops::MatMul(alpha, cmat));
    } else {
      point = zi;  // TRMMA-C ablation
    }

    // P(c_j|p_i) logits = c_j . p_i (Eq. 9, pre-sigmoid).
    logits.push_back(ops::MatMul(cmat, ops::Transpose(point)));  // k x 1
  }
  return logits;
}

void MmaMatcher::InferLogits(
    const Trajectory& traj,
    const std::vector<std::vector<Candidate>>& candidates,
    std::vector<double>* logits) const {
  TRMMA_SPAN("mma.forward");
  using nn::Gemm;
  using nn::Scratch;
  const int n = traj.size();
  const int d0 = config_.d0;
  const int d1 = config_.d1;
  const int d2 = config_.d2;
  const int d3 = config_.d3;
  // Point i owns candidate rows [first[i], first[i + 1]).
  std::vector<int> first(n + 1, 0);
  for (int i = 0; i < n; ++i) {
    // Invariant enforced by EnsureNonEmptyCandidates at every call site.
    TRMMA_CHECK(!candidates[i].empty());
    first[i + 1] = first[i] + static_cast<int>(candidates[i].size());
  }
  const int rows = first[n];
  nn::ScratchFrame frame;

  // Point sequence embeddings z^(2) via FC + transformer (Eq. 3), once
  // over the n points.
  double* z0 = Scratch::Raw(static_cast<size_t>(n) * 3);
  NormalizedPointFeatures(network_, traj, z0, 3);
  double* z = Scratch::Raw(static_cast<size_t>(n) * d2);
  point_fc_.Infer(z0, n, 3, z, d2);
  point_trans_.Infer(z, n);

  // Candidate embeddings c_j (Eq. 1-2), one kernel call per layer over all
  // rows. The first layer's input is [W^C row | features]; its W^C half
  // depends only on the segment, so it is computed once per distinct
  // segment of the request, and each row then continues that sum over its
  // own features — the same bits as the whole product (nn/kernel.h).
  thread_local std::vector<int> slot_of_segment;
  if (static_cast<int>(slot_of_segment.size()) < network_.num_segments()) {
    slot_of_segment.resize(network_.num_segments(), -1);
  }
  std::vector<int> distinct;
  std::vector<int> slot(rows);
  for (int i = 0; i < n; ++i) {
    for (size_t j = 0; j < candidates[i].size(); ++j) {
      int& s = slot_of_segment[candidates[i][j].segment];
      if (s < 0) {
        s = static_cast<int>(distinct.size());
        distinct.push_back(candidates[i][j].segment);
      }
      slot[first[i] + j] = s;
    }
  }
  for (int seg : distinct) slot_of_segment[seg] = -1;
  const int num_distinct = static_cast<int>(distinct.size());

  const nn::Matrix& table = seg_emb_.table().value;
  const double* w1 = cand_mlp_.fc1().weight().value.data();
  double* emb = Scratch::Raw(static_cast<size_t>(num_distinct) * d0);
  for (int s = 0; s < num_distinct; ++s) {
    std::copy_n(table.row(distinct[s]), d0, emb + s * d0);
  }
  double* seg_part = Scratch::Zeros(static_cast<size_t>(num_distinct) * d1);
  Gemm(num_distinct, d1, d0, emb, d0, 1, w1, d1, seg_part, d1);

  double* hidden = Scratch::Raw(static_cast<size_t>(rows) * d1);
  double* feats =
      Scratch::Zeros(static_cast<size_t>(rows) * kCandidateFeatures);
  for (int i = 0; i < n; ++i) {
    for (size_t j = 0; j < candidates[i].size(); ++j) {
      const int r = first[i] + static_cast<int>(j);
      std::copy_n(seg_part + slot[r] * d1, d1, hidden + r * d1);
      CandidateFeatures(config_, candidates[i][j], static_cast<int>(j),
                        feats + r * kCandidateFeatures);
    }
  }
  Gemm(rows, d1, kCandidateFeatures, feats, kCandidateFeatures, 1,
       w1 + d0 * d1, d1, hidden, d1);
  AddBiasRelu(hidden, rows, d1, cand_mlp_.fc1().bias().value.data());
  double* cmat = Scratch::Raw(static_cast<size_t>(rows) * d2);
  cand_mlp_.fc2().Infer(hidden, rows, d1, cmat, d2);

  // Point embeddings p_i with candidate-context attention (Eq. 7-8).
  const double* point = z;  // TRMMA-C ablation: p_i = z_i
  if (config_.use_candidate_context) {
    // The attention MLP's input is [z_i | c_j]: the z_i half of its first
    // layer is computed once per point, and each of the point's rows
    // continues it over c_j.
    const double* wa = attn_mlp_.fc1().weight().value.data();
    double* z_part = Scratch::Zeros(static_cast<size_t>(n) * d3);
    Gemm(n, d3, d2, z, d2, 1, wa, d3, z_part, d3);
    double* attn_hidden = Scratch::Raw(static_cast<size_t>(rows) * d3);
    for (int i = 0; i < n; ++i) {
      for (int r = first[i]; r < first[i + 1]; ++r) {
        std::copy_n(z_part + i * d3, d3, attn_hidden + r * d3);
      }
    }
    Gemm(rows, d3, d2, cmat, d2, 1, wa + d2 * d3, d3, attn_hidden, d3);
    AddBiasRelu(attn_hidden, rows, d3, attn_mlp_.fc1().bias().value.data());
    double* alpha = Scratch::Raw(rows);
    attn_mlp_.fc2().Infer(attn_hidden, rows, d3, alpha, 1);

    double* fused = Scratch::Zeros(static_cast<size_t>(n) * d2);
    for (int i = 0; i < n; ++i) {
      const int k = first[i + 1] - first[i];
      double* p = fused + i * d2;
      nn::SoftmaxRow(alpha + first[i], k);
      Gemm(1, d2, k, alpha + first[i], k, 1, cmat + first[i] * d2, d2, p, d2);
      for (int c = 0; c < d2; ++c) p[c] = z[i * d2 + c] + p[c];
    }
    point = fused;
  }

  // P(c_j|p_i) logits = c_j . p_i (Eq. 9, pre-sigmoid).
  logits->assign(rows, 0.0);
  for (int i = 0; i < n; ++i) {
    Gemm(first[i + 1] - first[i], 1, d2, cmat + first[i] * d2, d2, 1,
         point + i * d2, 1, logits->data() + first[i], 1);
  }
}

double MmaMatcher::TrainEpoch(const Dataset& dataset, Rng& rng) {
  TRMMA_SPAN("mma.train_epoch");
  namespace ops = nn::ops;
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
    auto candidates =
        ComputeCandidates(network_, index_, sample.sparse, config_.kc);
    if (!EnsureNonEmptyCandidates(&candidates)) continue;
    std::vector<Tensor> logits =
        ForwardLogits(tape, sample.sparse, candidates);

    // Per-point binary cross entropy against the ground-truth segment
    // (Eq. 10); points whose truth is outside the candidate set
    // contribute all-zero labels, exactly as in the paper's formulation.
    Tensor loss;
    for (size_t i = 0; i < logits.size(); ++i) {
      const SegmentId truth =
          sample.truth[sample.sparse_indices[i]].segment;
      nn::Matrix labels(logits[i].rows(), 1);
      for (int j = 0; j < logits[i].rows(); ++j) {
        if (candidates[i][j].segment == truth) labels.at(j, 0) = 1.0;
      }
      Tensor point_loss = ops::BceWithLogits(logits[i], std::move(labels));
      loss = i == 0 ? point_loss : ops::Add(loss, point_loss);
    }
    loss = ops::Scale(loss, 1.0 / static_cast<double>(logits.size()));
    total_loss += loss.value().at(0, 0) * logits.size();
    total_points += static_cast<int64_t>(logits.size());
    batch_loss += loss.value().at(0, 0) * logits.size();
    batch_points += static_cast<int64_t>(logits.size());
    tape.Backward(loss);
    tape.Clear();

    if (++in_batch == config_.batch_size) {
      optimizer_->Step();
      nn::LogTrainStep("mma", *optimizer_,
                       batch_points > 0 ? batch_loss / batch_points : 0.0,
                       batch_points, step_watch.LapMillis() / 1e3, epoch);
      in_batch = 0;
      batch_loss = 0.0;
      batch_points = 0;
    }
  }
  if (in_batch > 0) {
    optimizer_->Step();
    nn::LogTrainStep("mma", *optimizer_,
                     batch_points > 0 ? batch_loss / batch_points : 0.0,
                     batch_points, step_watch.LapMillis() / 1e3, epoch);
  }
  return total_points > 0 ? total_loss / total_points : 0.0;
}

Status MmaMatcher::Save(const std::string& path) {
  return nn::SaveParameters(Parameters(), path);
}

Status MmaMatcher::Load(const std::string& path) {
  return nn::LoadParameters(Parameters(), path);
}

std::vector<SegmentId> MmaMatcher::MatchPoints(const Trajectory& traj) {
  return MatchPointsWithScores(traj, nullptr);
}

std::vector<double> MmaMatcher::Logits(
    const Trajectory& traj,
    const std::vector<std::vector<Candidate>>& candidates, bool on_tape) {
  std::vector<double> logits;
  if (on_tape) {
    nn::Tape tape;
    for (const Tensor& point : ForwardLogits(tape, traj, candidates)) {
      const nn::Matrix& z = point.value();
      logits.insert(logits.end(), z.data(), z.data() + z.size());
    }
  } else {
    InferLogits(traj, candidates, &logits);
  }
  return logits;
}

std::vector<double> MmaMatcher::CandidateLogits(
    const Trajectory& traj, std::vector<std::vector<Candidate>> candidates,
    bool on_tape) {
  if (!EnsureNonEmptyCandidates(&candidates)) return {};
  return Logits(traj, candidates, on_tape);
}

std::vector<SegmentId> MmaMatcher::MatchPointsWithScores(
    const Trajectory& traj, std::vector<double>* scores) {
  return Match(traj, scores, /*on_tape=*/false);
}

std::vector<SegmentId> MmaMatcher::MatchPointsReference(
    const Trajectory& traj, std::vector<double>* scores) {
  return Match(traj, scores, /*on_tape=*/true);
}

std::vector<SegmentId> MmaMatcher::Match(const Trajectory& traj,
                                         std::vector<double>* scores,
                                         bool on_tape) {
  TRMMA_SPAN("mma.match");
  if (obs::MetricsEnabled()) {
    static obs::Counter* const points =
        obs::MetricRegistry::Global().GetCounter("mma.points_matched");
    points->Increment(traj.size());
  }
  std::vector<SegmentId> out(traj.size(), kInvalidSegment);
  if (scores != nullptr) scores->assign(traj.size(), 0.0);
  if (traj.empty()) return out;

  auto candidates = ComputeCandidates(network_, index_, traj, config_.kc);
  if (!EnsureNonEmptyCandidates(&candidates)) return out;  // all unmatched
  obs::RequestRecord* rec = obs::ActiveRecord();
  const bool capture_scores = rec != nullptr && rec->scores.empty();
  if (capture_scores) rec->scores.assign(traj.size(), 0.0);
  // Likewise the chosen candidate per point (segment + offset), so the
  // record pairs each confidence with the decision it scores.
  const bool capture_matched = rec != nullptr && rec->matched.empty();
  if (capture_matched) rec->matched.resize(traj.size());
  // Deadline checkpoint: the transformer forward pass is the expensive
  // block here. Once the budget is gone, snap each point to its closest
  // candidate by projection distance (the classifier's strongest single
  // feature) with a neutral confidence instead of running the network.
  if (DeadlineExpired()) {
    NoteDeadlineDegradation();
    if (obs::MetricsEnabled()) {
      obs::MetricRegistry::Global()
          .GetCounter("mma.deadline_degraded")
          ->Increment();
    }
    obs::RecordEvent("mma:deadline_degraded");
    for (int i = 0; i < traj.size(); ++i) {
      int best = 0;
      for (size_t j = 1; j < candidates[i].size(); ++j) {
        if (candidates[i][j].distance < candidates[i][best].distance) {
          best = static_cast<int>(j);
        }
      }
      out[i] = candidates[i][best].segment;
      if (scores != nullptr) (*scores)[i] = 0.5;
      if (capture_scores) rec->scores[i] = 0.5;
      if (capture_matched) {
        rec->matched[i] = {candidates[i][best].segment,
                           candidates[i][best].ratio, traj.points[i].t};
      }
    }
    return out;
  }
  const std::vector<double> logits = Logits(traj, candidates, on_tape);
  const double* point_logits = logits.data();
  for (int i = 0; i < traj.size(); ++i) {
    const int k = static_cast<int>(candidates[i].size());
    int best = 0;
    for (int j = 1; j < k; ++j) {
      if (point_logits[j] > point_logits[best]) best = j;
    }
    out[i] = candidates[i][best].segment;
    const double z = point_logits[best];
    point_logits += k;
    const double prob = 1.0 / (1.0 + std::exp(-z));
    if (scores != nullptr) (*scores)[i] = prob;
    // Flight recorder: capture the classifier's confidence even when the
    // caller doesn't ask for scores (the common MatchPoints path).
    if (capture_scores) rec->scores[i] = prob;
    if (capture_matched) {
      rec->matched[i] = {candidates[i][best].segment,
                         candidates[i][best].ratio, traj.points[i].t};
    }
  }
  return out;
}

}  // namespace trmma
