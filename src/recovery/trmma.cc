#include "recovery/trmma.h"

#include <algorithm>
#include <cmath>

#include "common/deadline.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "nn/kernel.h"
#include "nn/ops.h"
#include "nn/serialize.h"
#include "nn/telemetry.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"

namespace trmma {

using nn::Tensor;
namespace ops = nn::ops;

TrmmaRecovery::TrmmaRecovery(const RoadNetwork& network, MapMatcher* matcher,
                             DaRoutePlanner* planner,
                             ShortestPathEngine* fallback,
                             const TrmmaConfig& config, std::string label)
    : network_(network), matcher_(matcher), planner_(planner),
      fallback_(fallback), config_(config), label_(std::move(label)),
      init_rng_(config.seed),
      seg_table_(network.num_segments(), config.dh, init_rng_),
      t0_fc_(4 + config.dh, config.dh, init_rng_),
      route_fc_(config.dh + 4, config.dh, init_rng_),
      trans_t_(config.dh, config.trans_heads, config.trans_ffn,
               config.trans_layers, init_rng_),
      trans_r_(config.dh, config.trans_heads, config.trans_ffn,
               config.trans_layers, init_rng_),
      gru_(config.dh + 4, config.dh, init_rng_),
      cls_mlp_(2 * config.dh + 3, config.dh, 1, init_rng_),
      ratio_mlp_(2 * config.dh + 1, config.dh, 1, init_rng_) {
  AddChild(&seg_table_);
  AddChild(&t0_fc_);
  AddChild(&route_fc_);
  AddChild(&trans_t_);
  AddChild(&trans_r_);
  AddChild(&gru_);
  AddChild(&cls_mlp_);
  AddChild(&ratio_mlp_);
  optimizer_ = std::make_unique<nn::Adam>(Parameters(), config.lr);
}

namespace {

/// Min-max normalized [lat, lng, t, ratio] block of T0 (Eq. 11).
nn::Matrix AnchorFeatures(const RoadNetwork& network, const Trajectory& sparse,
                          const std::vector<MatchedPoint>& anchors) {
  nn::Matrix z(sparse.size(), 4);
  NormalizedPointFeatures(network, sparse, z.data(), 4);
  for (int i = 0; i < sparse.size(); ++i) z.at(i, 3) = anchors[i].ratio;
  return z;
}

/// Prefix sums of expected (free-flow) traversal times along the route:
/// out[k] = time before route[k]; out[route.size()] = total. Expected time
/// is the natural coordinate for locating a point that is a known number
/// of seconds into the trip.
std::vector<double> RoutePrefix(const RoadNetwork& network,
                                const Route& route) {
  std::vector<double> prefix(route.size() + 1, 0.0);
  for (size_t k = 0; k < route.size(); ++k) {
    const RoadSegment& seg = network.segment(route[k]);
    prefix[k + 1] = prefix[k] + seg.length_m / seg.speed_mps;
  }
  return prefix;
}

/// Cumulative expected-time fraction of position (idx, ratio).
double RouteFraction(const RoadNetwork& network, const Route& route,
                     const std::vector<double>& prefix, int idx,
                     double ratio) {
  if (route.empty()) return 0.0;
  idx = std::clamp(idx, 0, static_cast<int>(route.size()) - 1);
  const double total = std::max(prefix.back(), 1e-9);
  const RoadSegment& seg = network.segment(route[idx]);
  return (prefix[idx] + ratio * seg.length_m / seg.speed_mps) / total;
}

/// Normalized expected-time prefix: out[k] = fraction of total expected
/// time before route[k]; out[route.size()] = 1.
std::vector<double> NormalizedPrefix(const std::vector<double>& prefix) {
  std::vector<double> out(prefix.size());
  const double total = std::max(prefix.back(), 1e-9);
  for (size_t k = 0; k < prefix.size(); ++k) out[k] = prefix[k] / total;
  return out;
}

/// Analytic position-ratio prior for segment `k` at time fraction `tau`:
/// where a uniform-expected-time traveller would sit on that segment.
double ExpectedRatio(const RoadNetwork& network, const Route& route,
                     const std::vector<double>& prefix, int k, double tau) {
  if (route.empty()) return 0.5;
  k = std::clamp(k, 0, static_cast<int>(route.size()) - 1);
  const double total = std::max(prefix.back(), 1e-9);
  const RoadSegment& seg = network.segment(route[k]);
  const double seg_time = std::max(seg.length_m / seg.speed_mps, 1e-9);
  return std::clamp((tau * total - prefix[k]) / seg_time, 0.0, 1.0);
}

/// First index of `segment` in `route` at or after `from`; falls back to a
/// global search, then to `from` itself.
int LocateOnRoute(const Route& route, SegmentId segment, int from) {
  for (int k = from; k < static_cast<int>(route.size()); ++k) {
    if (route[k] == segment) return k;
  }
  for (int k = 0; k < from && k < static_cast<int>(route.size()); ++k) {
    if (route[k] == segment) return k;
  }
  return std::min(from, static_cast<int>(route.size()) - 1);
}

/// Map-matched input of the decode: per-point anchors and the route
/// section(s) they lie on. `repaired` counts points whose unmatched segment
/// was borrowed from a neighbor.
struct PreparedInput {
  std::vector<MatchedPoint> anchors;
  std::vector<RouteSection> sections;
  int repaired = 0;
};

/// Map matches `sparse` and prepares the per-section decode input. Points
/// the matcher could not place (kInvalidSegment) borrow the nearest matched
/// neighbor's segment; an input where no point matches at all is the only
/// unrecoverable case and returns a Status instead.
StatusOr<PreparedInput> PrepareSections(const RoadNetwork& network,
                                        MapMatcher& matcher,
                                        DaRoutePlanner& planner,
                                        ShortestPathEngine& fallback,
                                        const Trajectory& sparse) {
  std::vector<SegmentId> segs = matcher.MatchPoints(sparse);
  const int n = static_cast<int>(segs.size());
  auto valid = [&](SegmentId sid) {
    return sid >= 0 && sid < network.num_segments();
  };
  PreparedInput prep;
  for (int i = 0; i < n; ++i) {
    if (valid(segs[i])) continue;
    for (int off = 1; off < n; ++off) {
      if (i - off >= 0 && valid(segs[i - off])) {
        segs[i] = segs[i - off];
        break;
      }
      if (i + off < n && valid(segs[i + off])) {
        segs[i] = segs[i + off];
        break;
      }
    }
    if (!valid(segs[i])) {
      return Status::FailedPrecondition(
          "map matching produced no usable segment for any point");
    }
    ++prep.repaired;
  }
  if (prep.repaired > 0) {
    obs::RecordEvent("recover:anchor_repaired=" +
                     std::to_string(prep.repaired));
  }
  prep.sections = StitchRouteSections(network, planner, fallback, segs);
  if (prep.sections.empty()) {
    return Status::Internal("route stitching produced no sections");
  }
  if (prep.sections.size() > 1) {
    obs::RecordEvent("recover:multi_section=" +
                     std::to_string(prep.sections.size()));
  }
  prep.anchors.resize(n);
  for (int i = 0; i < n; ++i) {
    prep.anchors[i] = ProjectToSegment(network, sparse.points[i], segs[i]);
  }
  return prep;
}

/// Decodes every section independently and fills the ε-grid points of the
/// unroutable gaps between sections by holding the nearest anchor (first
/// half of a gap holds the left anchor, second half the right). Adds the
/// held points to `stats->degraded_points`.
template <typename DecodeFn>
MatchedTrajectory AssembleSections(const std::vector<RouteSection>& sections,
                                   const Trajectory& sparse,
                                   const std::vector<MatchedPoint>& anchors,
                                   double epsilon, RecoverStats* stats,
                                   DecodeFn&& decode) {
  MatchedTrajectory out;
  int held = 0;
  for (size_t s = 0; s < sections.size(); ++s) {
    const RouteSection& sec = sections[s];
    Trajectory sub;
    sub.points.assign(sparse.points.begin() + sec.first_point,
                      sparse.points.begin() + sec.last_point + 1);
    std::vector<MatchedPoint> sub_anchors(
        anchors.begin() + sec.first_point,
        anchors.begin() + sec.last_point + 1);
    if (s > 0) {
      const double t_l = sparse.points[sections[s - 1].last_point].t;
      const double t_r = sparse.points[sec.first_point].t;
      const MatchedPoint left = out.back();
      const MatchedPoint& right = sub_anchors.front();
      const int missing = NumMissingPoints(t_l, t_r, epsilon);
      for (int j = 1; j <= missing; ++j) {
        MatchedPoint p = (t_l + j * epsilon) - t_l <= t_r - (t_l + j * epsilon)
                             ? left
                             : right;
        p.t = t_l + j * epsilon;
        out.push_back(p);
      }
      held += missing;
    }
    MatchedTrajectory piece = decode(sub, sub_anchors, sec.route);
    out.insert(out.end(), piece.begin(), piece.end());
  }
  if (held > 0) {
    obs::RecordEvent("recover:gap_fill_held=" + std::to_string(held));
  }
  if (stats != nullptr) {
    stats->route_sections = static_cast<int>(sections.size());
    stats->degraded_points += held;
  }
  return out;
}

/// Counts a degraded / failed recovery on the obs registry.
void CountRecoverEvent(const char* name) {
  if (!obs::MetricsEnabled()) return;
  obs::MetricRegistry::Global().GetCounter(name)->Increment();
}

}  // namespace

Tensor TrmmaRecovery::EncodeH(nn::Tape& tape, const Trajectory& sparse,
                              const std::vector<MatchedPoint>& anchors,
                              const Route& route) {
  TRMMA_SPAN("trmma.encode");
  // T branch (Eq. 11): [lat,lng,t,r] + segment id embedding -> FC -> Trans.
  std::vector<int> anchor_ids(anchors.size());
  for (size_t i = 0; i < anchors.size(); ++i) {
    anchor_ids[i] = anchors[i].segment;
  }
  Tensor t0 = ops::ConcatCols(
      ops::Input(tape, AnchorFeatures(network_, sparse, anchors)),
      seg_table_.Forward(tape, anchor_ids));
  Tensor t_mat = trans_t_.Forward(t0_fc_.Forward(t0));

  // R branch (Eq. 12): id embedding plus geometric features (normalized
  // length, cumulative-distance fraction, speed, cumulative-time fraction)
  // -> FC -> Trans. The geometric features substitute for what the paper's
  // W7 embeddings learn from millions of trips (DESIGN.md §2).
  std::vector<int> route_ids(route.begin(), route.end());
  const double total_len = std::max(RouteLength(network_, route), 1e-9);
  const std::vector<double> time_prefix = RoutePrefix(network_, route);
  const double total_time = std::max(time_prefix.back(), 1e-9);
  nn::Matrix rfeat(static_cast<int>(route.size()), 4);
  double cum = 0.0;
  for (size_t k = 0; k < route.size(); ++k) {
    const RoadSegment& seg = network_.segment(route[k]);
    rfeat.at(k, 0) = seg.length_m / 500.0;
    rfeat.at(k, 1) = (cum + 0.5 * seg.length_m) / total_len;
    rfeat.at(k, 2) = seg.speed_mps / 30.0;
    rfeat.at(k, 3) =
        (time_prefix[k] + 0.5 * seg.length_m / seg.speed_mps) / total_time;
    cum += seg.length_m;
  }
  Tensor r1 = route_fc_.Forward(
      ops::ConcatCols(seg_table_.Forward(tape, route_ids),
                      ops::Input(tape, std::move(rfeat))));
  Tensor r_mat = trans_r_.Forward(r1);

  if (!config_.use_dualformer) return r_mat;  // TRMMA-DF ablation

  // Cross attention (Eq. 13-14): H = R + softmax(R T^T) T.
  Tensor beta = ops::SoftmaxRows(ops::MatMul(r_mat, ops::Transpose(t_mat)));
  return ops::Add(r_mat, ops::MatMul(beta, t_mat));
}

void TrmmaRecovery::StepAndClassify(nn::Tape& tape, Tensor h_in, Tensor enc_h,
                                    const std::vector<double>& prefix_frac,
                                    SegmentId prev_segment, double prev_ratio,
                                    double target_time_frac,
                                    double prev_route_frac,
                                    double expected_frac, Tensor* h_out,
                                    Tensor* w) {
  // GRU input: embedding of the previous point's segment, its ratio, the
  // normalized time of the point being recovered (its timestamp is known
  // from the ε grid, Def. 6), the previous point's route fraction, and the
  // anchor-interpolated expected fraction of the target.
  nn::Matrix r_in(1, 4);
  r_in.at(0, 0) = prev_ratio;
  r_in.at(0, 1) = target_time_frac;
  r_in.at(0, 2) = prev_route_frac;
  r_in.at(0, 3) = expected_frac;
  Tensor x = ops::ConcatCols(seg_table_.Forward(tape, {prev_segment}),
                             ops::Input(tape, std::move(r_in)));
  *h_out = gru_.Step(x, h_in);

  // Classification over the route's segments (Eq. 15), structured as a
  // residual around an analytic containment prior: a segment whose
  // expected-time interval contains the anchor-interpolated expected
  // position gets a positive prior logit, others negative proportional to
  // their offset. The network refines this prior rather than solving
  // localization from scratch (DESIGN.md §2).
  const int route_len = enc_h.rows();
  nn::Matrix prior(route_len, 1);
  nn::Matrix align(route_len, 3);
  for (int k = 0; k < route_len; ++k) {
    const double start = prefix_frac[k];
    const double end = prefix_frac[k + 1];
    const double width = std::max(end - start, 1e-9);
    const double u = (expected_frac - start) / width;
    prior.at(k, 0) = 4.0 * std::min(u, 1.0 - u);  // >0 inside, <0 outside
    const double mid = 0.5 * (start + end);
    align.at(k, 0) = mid - expected_frac;
    align.at(k, 1) = mid - prev_route_frac;
    align.at(k, 2) = mid - target_time_frac;
  }
  Tensor paired = ops::ConcatCols(
      ops::ConcatCols(enc_h, ops::RepeatRows(*h_out, route_len)),
      ops::Input(tape, std::move(align)));
  *w = ops::Add(ops::Input(tape, std::move(prior)),
                cls_mlp_.Forward(paired));  // route_len x 1
}

Tensor TrmmaRecovery::PredictRatio(nn::Tape& tape, Tensor h, Tensor enc_h,
                                   Tensor w, double expected_ratio) {
  // Ratio regression (Eq. 18): attention readout over H weighted by the
  // classification scores. The network output is a residual added to the
  // logit of the analytic uniform-speed ratio prior of the chosen
  // segment, so the prediction starts at the prior and is refined.
  Tensor psi = ops::SoftmaxRows(ops::Transpose(w));  // 1 x route_len
  Tensor ctx = ops::MatMul(psi, enc_h);
  const double clamped = std::clamp(expected_ratio, 0.02, 0.98);
  nn::Matrix prior_feat(1, 1);
  prior_feat.at(0, 0) = expected_ratio;
  Tensor in = ops::ConcatCols(ops::ConcatCols(h, ctx),
                              ops::Input(tape, std::move(prior_feat)));
  nn::Matrix prior_logit(1, 1);
  prior_logit.at(0, 0) = std::log(clamped / (1.0 - clamped));
  return ops::Sigmoid(ops::Add(ratio_mlp_.Forward(in),
                               ops::Input(tape, std::move(prior_logit))));
}

Status TrmmaRecovery::Save(const std::string& path) {
  return nn::SaveParameters(Parameters(), path);
}

Status TrmmaRecovery::Load(const std::string& path) {
  return nn::LoadParameters(Parameters(), path);
}

double TrmmaRecovery::TrainEpoch(const Dataset& dataset, Rng& rng) {
  TRMMA_SPAN("trmma.train_epoch");
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
    if (sample.sparse.size() < 2 || sample.route.empty()) continue;

    // Training uses the ground-truth route and matched anchors, with
    // scheduled sampling: the previous point fed to the decoder is
    // sometimes the model's own prediction so that free-running inference
    // does not drift (exposure-bias mitigation).
    std::vector<MatchedPoint> anchors(sample.sparse.size());
    for (size_t i = 0; i < anchors.size(); ++i) {
      anchors[i] = sample.truth[sample.sparse_indices[i]];
    }
    Tensor enc_h = EncodeH(tape, sample.sparse, anchors, sample.route);
    Tensor h = ops::MeanRows(enc_h);

    const double t_begin = sample.sparse.points.front().t;
    const double t_span =
        std::max(sample.sparse.points.back().t - t_begin, 1e-9);
    const std::vector<double> prefix = RoutePrefix(network_, sample.route);
    const std::vector<double> pfrac = NormalizedPrefix(prefix);
    std::vector<char> observed(sample.truth.size(), 0);
    for (int si : sample.sparse_indices) observed[si] = 1;

    // Anchor-interpolated expected route fraction of every dense point.
    std::vector<double> expected(sample.truth.size(), 0.0);
    {
      int cursor = 0;
      for (size_t g = 0; g + 1 < sample.sparse_indices.size(); ++g) {
        const int a = sample.sparse_indices[g];
        const int b = sample.sparse_indices[g + 1];
        const int idx_a =
            LocateOnRoute(sample.route, sample.truth[a].segment, cursor);
        const int idx_b =
            LocateOnRoute(sample.route, sample.truth[b].segment, idx_a);
        cursor = idx_a;
        const double fa = RouteFraction(network_, sample.route, prefix,
                                        idx_a, sample.truth[a].ratio);
        const double fb = RouteFraction(network_, sample.route, prefix,
                                        idx_b, sample.truth[b].ratio);
        const double dt =
            std::max(sample.truth[b].t - sample.truth[a].t, 1e-9);
        for (int j = a; j <= b; ++j) {
          expected[j] =
              fa + (fb - fa) * (sample.truth[j].t - sample.truth[a].t) / dt;
        }
      }
    }

    Tensor loss;
    int num_predicted = 0;
    MatchedPoint prev = sample.truth.front();
    int prev_route_idx = LocateOnRoute(sample.route, prev.segment, 0);
    for (size_t j = 1; j < sample.truth.size(); ++j) {
      const MatchedPoint& cur = sample.truth[j];
      const double tau = (cur.t - t_begin) / t_span;
      Tensor h_next;
      Tensor w;
      StepAndClassify(tape, h, enc_h, pfrac, prev.segment, prev.ratio, tau,
                      RouteFraction(network_, sample.route, prefix,
                                    prev_route_idx, prev.ratio),
                      expected[j], &h_next, &w);
      h = h_next;

      if (observed[j]) {
        prev = cur;
        prev_route_idx =
            LocateOnRoute(sample.route, cur.segment, prev_route_idx);
        continue;
      }

      // Classification loss (Eq. 19).
      const int target_idx =
          LocateOnRoute(sample.route, cur.segment, prev_route_idx);
      nn::Matrix labels(w.rows(), 1);
      if (sample.route[target_idx] == cur.segment) {
        labels.at(target_idx, 0) = 1.0;
      }
      Tensor seg_loss = ops::BceWithLogits(w, std::move(labels));

      // Ratio loss (Eq. 20), conditioned on the true segment.
      Tensor ratio = PredictRatio(
          tape, h, enc_h, w,
          ExpectedRatio(network_, sample.route, prefix, target_idx,
                        expected[j]));
      nn::Matrix target_ratio(1, 1);
      target_ratio.at(0, 0) = cur.ratio;
      Tensor ratio_loss = ops::L1Loss(ratio, std::move(target_ratio));

      Tensor step_loss =
          ops::Add(seg_loss, ops::Scale(ratio_loss, config_.lambda));
      loss = num_predicted == 0 ? step_loss : ops::Add(loss, step_loss);
      ++num_predicted;

      // Scheduled sampling: advance from the model's own prediction with
      // probability `scheduled_sampling`.
      if (rng.Bernoulli(config_.scheduled_sampling)) {
        int best = prev_route_idx;
        for (int k = prev_route_idx;
             k < static_cast<int>(sample.route.size()); ++k) {
          if (w.value().at(k, 0) > w.value().at(best, 0)) best = k;
        }
        prev = MatchedPoint{
            sample.route[best],
            std::clamp(ratio.value().at(0, 0), 0.0, 0.999999), cur.t};
        prev_route_idx = best;
      } else {
        prev = cur;
        prev_route_idx =
            LocateOnRoute(sample.route, cur.segment, prev_route_idx);
      }
    }
    if (num_predicted == 0) {
      tape.Clear();
      continue;
    }
    loss = ops::Scale(loss, 1.0 / num_predicted);
    total_loss += loss.value().at(0, 0) * num_predicted;
    total_points += num_predicted;
    batch_loss += loss.value().at(0, 0) * num_predicted;
    batch_points += num_predicted;
    tape.Backward(loss);
    tape.Clear();
    if (++in_batch == config_.batch_size) {
      optimizer_->Step();
      nn::LogTrainStep("trmma", *optimizer_,
                       batch_points > 0 ? batch_loss / batch_points : 0.0,
                       batch_points, step_watch.LapMillis() / 1e3, epoch);
      in_batch = 0;
      batch_loss = 0.0;
      batch_points = 0;
    }
  }
  if (in_batch > 0) {
    optimizer_->Step();
    nn::LogTrainStep("trmma", *optimizer_,
                     batch_points > 0 ? batch_loss / batch_points : 0.0,
                     batch_points, step_watch.LapMillis() / 1e3, epoch);
  }
  return total_points > 0 ? total_loss / total_points : 0.0;
}

TrmmaRecovery::TeacherForcedStats TrmmaRecovery::EvaluateTeacherForced(
    const Dataset& dataset, const std::vector<int>& indices) {
  TeacherForcedStats stats;
  int64_t count = 0;
  int64_t correct = 0;
  double ratio_err = 0.0;
  nn::Tape tape;
  for (int idx : indices) {
    const TrajectorySample& sample = dataset.samples[idx];
    if (sample.sparse.size() < 2 || sample.route.empty()) continue;
    std::vector<MatchedPoint> anchors(sample.sparse.size());
    for (size_t i = 0; i < anchors.size(); ++i) {
      anchors[i] = sample.truth[sample.sparse_indices[i]];
    }
    Tensor enc_h = EncodeH(tape, sample.sparse, anchors, sample.route);
    Tensor h = ops::MeanRows(enc_h);
    const double t_begin = sample.sparse.points.front().t;
    const double t_span =
        std::max(sample.sparse.points.back().t - t_begin, 1e-9);
    const std::vector<double> prefix = RoutePrefix(network_, sample.route);
    const std::vector<double> pfrac = NormalizedPrefix(prefix);
    std::vector<char> observed(sample.truth.size(), 0);
    for (int si : sample.sparse_indices) observed[si] = 1;
    std::vector<double> expected(sample.truth.size(), 0.0);
    {
      int cursor = 0;
      for (size_t g = 0; g + 1 < sample.sparse_indices.size(); ++g) {
        const int a = sample.sparse_indices[g];
        const int b = sample.sparse_indices[g + 1];
        const int idx_a =
            LocateOnRoute(sample.route, sample.truth[a].segment, cursor);
        const int idx_b =
            LocateOnRoute(sample.route, sample.truth[b].segment, idx_a);
        cursor = idx_a;
        const double fa = RouteFraction(network_, sample.route, prefix,
                                        idx_a, sample.truth[a].ratio);
        const double fb = RouteFraction(network_, sample.route, prefix,
                                        idx_b, sample.truth[b].ratio);
        const double dt =
            std::max(sample.truth[b].t - sample.truth[a].t, 1e-9);
        for (int j = a; j <= b; ++j) {
          expected[j] =
              fa + (fb - fa) * (sample.truth[j].t - sample.truth[a].t) / dt;
        }
      }
    }
    int prev_route_idx = 0;
    for (size_t j = 1; j < sample.truth.size(); ++j) {
      const MatchedPoint& prev = sample.truth[j - 1];
      const MatchedPoint& cur = sample.truth[j];
      const double tau = (cur.t - t_begin) / t_span;
      prev_route_idx =
          LocateOnRoute(sample.route, prev.segment, prev_route_idx);
      Tensor h_next;
      Tensor w;
      StepAndClassify(tape, h, enc_h, pfrac, prev.segment, prev.ratio, tau,
                      RouteFraction(network_, sample.route, prefix,
                                    prev_route_idx, prev.ratio),
                      expected[j], &h_next, &w);
      h = h_next;
      if (!observed[j]) {
        int best = prev_route_idx;
        for (int k = prev_route_idx;
             k < static_cast<int>(sample.route.size()); ++k) {
          if (w.value().at(k, 0) > w.value().at(best, 0)) best = k;
        }
        if (sample.route[best] == cur.segment) ++correct;
        Tensor ratio = PredictRatio(
            tape, h, enc_h, w,
            ExpectedRatio(network_, sample.route, prefix, best,
                          expected[j]));
        ratio_err += std::abs(ratio.value().at(0, 0) - cur.ratio);
        ++count;
      }
    }
    tape.Clear();
  }
  if (count > 0) {
    stats.cls_accuracy = static_cast<double>(correct) / count;
    stats.ratio_mae = ratio_err / count;
  }
  return stats;
}

MatchedTrajectory TrmmaRecovery::RecoverReference(const Trajectory& sparse,
                                                  double epsilon) {
  StatusOr<MatchedTrajectory> result = TryRecoverReference(sparse, epsilon);
  if (!result.ok()) {
    TRMMA_LOG(Warning) << "RecoverReference failed ("
                       << result.status().ToString()
                       << "); returning empty recovery";
    CountRecoverEvent("trmma.recover.failed");
    return {};
  }
  return std::move(result).value();
}

StatusOr<MatchedTrajectory> TrmmaRecovery::TryRecoverReference(
    const Trajectory& sparse, double epsilon, RecoverStats* stats) {
  if (stats != nullptr) *stats = RecoverStats{};
  if (sparse.empty()) return MatchedTrajectory{};

  // Step 1 (Algorithm 2 line 1): map match and stitch the route section(s).
  StatusOr<PreparedInput> prep =
      PrepareSections(network_, *matcher_, *planner_, *fallback_, sparse);
  if (!prep.ok()) return prep.status();
  if (stats != nullptr) stats->degraded_points += prep->repaired;
  if (prep->sections.size() > 1) CountRecoverEvent("trmma.recover.degraded");
  return AssembleSections(
      prep->sections, sparse, prep->anchors, epsilon, stats,
      [&](const Trajectory& sub, const std::vector<MatchedPoint>& anchors,
          const Route& route) {
        return DecodeSectionReference(sub, anchors, route, epsilon);
      });
}

MatchedTrajectory TrmmaRecovery::DecodeSectionReference(
    const Trajectory& sparse, const std::vector<MatchedPoint>& anchors,
    const Route& route, double epsilon) {
  MatchedTrajectory out;

  // Lines 5-6: DualFormer encoding and initial decoder state.
  nn::Tape tape;
  Tensor enc_h = EncodeH(tape, sparse, anchors, route);
  Tensor h = ops::MeanRows(enc_h);

  // Lines 7-16: sequential decoding, constrained to the route order.
  const double t_begin = sparse.points.front().t;
  const double t_span = std::max(sparse.points.back().t - t_begin, 1e-9);
  const std::vector<double> prefix = RoutePrefix(network_, route);
  const std::vector<double> pfrac = NormalizedPrefix(prefix);
  int prev_route_idx = LocateOnRoute(route, anchors[0].segment, 0);
  MatchedPoint prev = anchors[0];
  out.push_back(anchors[0]);
  for (int i = 0; i + 1 < sparse.size(); ++i) {
    const int missing = NumMissingPoints(sparse.points[i].t,
                                         sparse.points[i + 1].t, epsilon);
    // Missing points of this gap lie between the current position and the
    // next observed point on the route, so the argmax of Eq. 17 is taken
    // over that sub-route (the suffix additionally truncated at the next
    // anchor, which every method knows).
    const int next_anchor_idx =
        LocateOnRoute(route, anchors[i + 1].segment, prev_route_idx);
    const int window_end = std::max(next_anchor_idx, prev_route_idx);
    const double frac_a = RouteFraction(network_, route, prefix,
                                        prev_route_idx, anchors[i].ratio);
    const double frac_b = RouteFraction(network_, route, prefix,
                                        window_end, anchors[i + 1].ratio);
    const double gap_dt =
        std::max(sparse.points[i + 1].t - sparse.points[i].t, 1e-9);
    for (int j = 1; j <= missing; ++j) {
      const double t_j = sparse.points[i].t + j * epsilon;
      const double tau = (t_j - t_begin) / t_span;
      const double expected_frac =
          frac_a + (frac_b - frac_a) * (t_j - sparse.points[i].t) / gap_dt;
      Tensor h_next;
      Tensor w;
      StepAndClassify(tape, h, enc_h, pfrac, prev.segment, prev.ratio, tau,
                      RouteFraction(network_, route, prefix, prev_route_idx,
                                    prev.ratio),
                      expected_frac, &h_next, &w);
      h = h_next;
      // argmax over the sub-route starting at the previous point (Eq. 17).
      int best = prev_route_idx;
      for (int k = prev_route_idx; k <= window_end; ++k) {
        if (w.value().at(k, 0) > w.value().at(best, 0)) best = k;
      }
      Tensor ratio = PredictRatio(
          tape, h, enc_h, w,
          ExpectedRatio(network_, route, prefix, best, expected_frac));
      MatchedPoint a;
      a.segment = route[best];
      a.ratio = std::clamp(ratio.value().at(0, 0), 0.0, 0.999999);
      a.t = t_j;
      out.push_back(a);
      prev = a;
      prev_route_idx = best;
    }
    // The observed point a_{i+1} also advances the GRU state.
    Tensor h_next;
    Tensor w;
    StepAndClassify(tape, h, enc_h, pfrac, prev.segment, prev.ratio,
                    (sparse.points[i + 1].t - t_begin) / t_span,
                    RouteFraction(network_, route, prefix, prev_route_idx,
                                  prev.ratio),
                    frac_b, &h_next, &w);
    h = h_next;
    prev = anchors[i + 1];
    prev_route_idx = LocateOnRoute(route, prev.segment, prev_route_idx);
    out.push_back(anchors[i + 1]);
  }
  return out;
}

namespace {

/// Weight views of a two-layer Mlp (fc1.w, fc1.b, fc2.w, fc2.b).
struct MlpView {
  const nn::Matrix* w1;
  const nn::Matrix* b1;
  const nn::Matrix* w2;
  const nn::Matrix* b2;
};

MlpView ViewMlp(nn::Module& mlp) {
  auto params = mlp.Parameters();
  return {&params[0]->value, &params[1]->value, &params[2]->value,
          &params[3]->value};
}

double SigmoidScalar(double x) {
  if (x >= 0) return 1.0 / (1.0 + std::exp(-x));
  const double e = std::exp(x);
  return e / (1.0 + e);
}

}  // namespace

MatchedTrajectory TrmmaRecovery::Recover(const Trajectory& sparse,
                                         double epsilon) {
  StatusOr<MatchedTrajectory> result = TryRecover(sparse, epsilon);
  if (!result.ok()) {
    TRMMA_LOG(Warning) << "Recover failed (" << result.status().ToString()
                       << "); returning empty recovery";
    CountRecoverEvent("trmma.recover.failed");
    return {};
  }
  return std::move(result).value();
}

StatusOr<MatchedTrajectory> TrmmaRecovery::TryRecover(const Trajectory& sparse,
                                                      double epsilon,
                                                      RecoverStats* stats) {
  TRMMA_SPAN("trmma.recover");
  if (stats != nullptr) *stats = RecoverStats{};
  if (sparse.empty()) return MatchedTrajectory{};

  // Step 1 (Algorithm 2 line 1): map match and stitch the route section(s).
  StatusOr<PreparedInput> prep =
      PrepareSections(network_, *matcher_, *planner_, *fallback_, sparse);
  if (!prep.ok()) return prep.status();
  if (stats != nullptr) stats->degraded_points += prep->repaired;
  if (prep->sections.size() > 1) CountRecoverEvent("trmma.recover.degraded");
  MatchedTrajectory out = AssembleSections(
      prep->sections, sparse, prep->anchors, epsilon, stats,
      [&](const Trajectory& sub, const std::vector<MatchedPoint>& anchors,
          const Route& route) {
        return DecodeSectionFast(sub, anchors, route, epsilon);
      });
  if (obs::MetricsEnabled()) {
    static obs::Counter* const recovered =
        obs::MetricRegistry::Global().GetCounter("trmma.points_recovered");
    recovered->Increment(static_cast<int64_t>(out.size()));
  }
  return out;
}

MatchedTrajectory TrmmaRecovery::DecodeSectionFast(
    const Trajectory& sparse, const std::vector<MatchedPoint>& anchors,
    const Route& route, double epsilon) {
  MatchedTrajectory out;
  const int route_len = static_cast<int>(route.size());

  // Lines 5-6: DualFormer encoding (once, on the tape) + initial state.
  nn::Tape tape;
  const nn::Matrix enc = EncodeH(tape, sparse, anchors, route).value();
  const int dh = config_.dh;
  std::vector<double> h(dh, 0.0);
  for (int k = 0; k < route_len; ++k) {
    for (int j = 0; j < dh; ++j) h[j] += enc.at(k, j);
  }
  for (int j = 0; j < dh; ++j) h[j] /= route_len;
  tape.Clear();

  // Precompute the step-invariant classifier term: H * W8[0:dh] (the
  // classifier input layout is [H_k | h | align0..2]).
  const MlpView cls = ViewMlp(cls_mlp_);
  const MlpView rat = ViewMlp(ratio_mlp_);
  const nn::Matrix& gamma = seg_table_.table().value;
  nn::Matrix cls_h_part(route_len, dh);
  nn::Gemm(route_len, dh, dh, enc.data(), dh, 1, cls.w1->data(), dh,
           cls_h_part.data(), dh);

  // GRU weight views (GruCell parameter order: wz,uz,bz,wr,ur,br,wh,uh,bh).
  auto gru_params = gru_.Parameters();
  const nn::Matrix& wz = gru_params[0]->value;
  const nn::Matrix& uz = gru_params[1]->value;
  const nn::Matrix& bz = gru_params[2]->value;
  const nn::Matrix& wr = gru_params[3]->value;
  const nn::Matrix& ur = gru_params[4]->value;
  const nn::Matrix& br = gru_params[5]->value;
  const nn::Matrix& wh = gru_params[6]->value;
  const nn::Matrix& uh = gru_params[7]->value;
  const nn::Matrix& bh = gru_params[8]->value;

  const double t_begin = sparse.points.front().t;
  const double t_span = std::max(sparse.points.back().t - t_begin, 1e-9);
  const std::vector<double> prefix = RoutePrefix(network_, route);
  const std::vector<double> pfrac = NormalizedPrefix(prefix);
  std::vector<double> mid(route_len);
  for (int k = 0; k < route_len; ++k) {
    mid[k] = 0.5 * (pfrac[k] + pfrac[k + 1]);
  }

  // One tape-free decode step: advances h in place, fills w (logits with
  // prior) for all route segments.
  std::vector<double> x(dh + 4);
  std::vector<double> gz(dh);
  std::vector<double> gr(dh);
  std::vector<double> gh(dh);
  std::vector<double> tmp;
  std::vector<double> w(route_len);
  std::vector<double> u_part;
  auto gru_step = [&](SegmentId prev_seg, double prev_ratio, double tau,
                      double prev_frac, double expected_frac) {
    const double* emb = gamma.row(prev_seg);
    for (int j = 0; j < dh; ++j) x[j] = emb[j];
    x[dh] = prev_ratio;
    x[dh + 1] = tau;
    x[dh + 2] = prev_frac;
    x[dh + 3] = expected_frac;
    nn::AffineInfer(x.data(), 1, dh + 4, wz, bz, gz.data(), dh);
    nn::AffineInfer(x.data(), 1, dh + 4, wr, br, gr.data(), dh);
    nn::AffineInfer(x.data(), 1, dh + 4, wh, bh, gh.data(), dh);
    // + h * U terms, continuing each gate's sum.
    nn::Gemm(1, dh, dh, h.data(), dh, 1, uz.data(), dh, gz.data(), dh);
    nn::Gemm(1, dh, dh, h.data(), dh, 1, ur.data(), dh, gr.data(), dh);
    tmp.assign(dh, 0.0);
    for (int j = 0; j < dh; ++j) {
      gz[j] = SigmoidScalar(gz[j]);
      gr[j] = SigmoidScalar(gr[j]);
      tmp[j] = gr[j] * h[j];  // r * h
    }
    nn::Gemm(1, dh, dh, tmp.data(), dh, 1, uh.data(), dh, gh.data(), dh);
    for (int j = 0; j < dh; ++j) {
      const double cand = std::tanh(gh[j]);
      h[j] = (1.0 - gz[j]) * h[j] + gz[j] * cand;
    }
  };
  auto classify = [&](double tau, double prev_frac, double expected_frac) {
    // u = h * W8[dh:2dh] + b8 (the h-dependent classifier part).
    u_part.assign(dh, 0.0);
    nn::Gemm(1, dh, dh, h.data(), dh, 1, cls.w1->row(dh), dh, u_part.data(),
             dh);
    for (int j = 0; j < dh; ++j) u_part[j] += cls.b1->at(0, j);
    const double* a0w = cls.w1->row(2 * dh);
    const double* a1w = cls.w1->row(2 * dh + 1);
    const double* a2w = cls.w1->row(2 * dh + 2);
    for (int k = 0; k < route_len; ++k) {
      const double a0 = mid[k] - expected_frac;
      const double a1 = mid[k] - prev_frac;
      const double a2 = mid[k] - tau;
      double acc = cls.b2->at(0, 0);
      const double* hk = cls_h_part.row(k);
      for (int j = 0; j < dh; ++j) {
        const double pre =
            hk[j] + u_part[j] + a0 * a0w[j] + a1 * a1w[j] + a2 * a2w[j];
        if (pre > 0.0) acc += pre * cls.w2->at(j, 0);
      }
      // Containment prior (mirrors StepAndClassify).
      const double start = pfrac[k];
      const double end = pfrac[k + 1];
      const double width = std::max(end - start, 1e-9);
      const double uu = (expected_frac - start) / width;
      w[k] = acc + 4.0 * std::min(uu, 1.0 - uu);
    }
  };
  auto predict_ratio = [&](double expected_ratio) {
    // psi = softmax(w); ctx = psi * H.
    double mx = w[0];
    for (int k = 1; k < route_len; ++k) mx = std::max(mx, w[k]);
    double sum = 0.0;
    tmp.assign(route_len, 0.0);
    for (int k = 0; k < route_len; ++k) {
      tmp[k] = std::exp(w[k] - mx);
      sum += tmp[k];
    }
    std::vector<double> in(2 * dh + 1, 0.0);
    for (int j = 0; j < dh; ++j) in[j] = h[j];
    for (int k = 0; k < route_len; ++k) tmp[k] /= sum;  // psi
    nn::Gemm(1, dh, route_len, tmp.data(), route_len, 1, enc.data(), dh,
             in.data() + dh, dh);
    in[2 * dh] = expected_ratio;
    nn::AffineInfer(in.data(), 1, 2 * dh + 1, *rat.w1, *rat.b1, gh.data(), dh);
    double acc = rat.b2->at(0, 0);
    for (int j = 0; j < static_cast<int>(gh.size()); ++j) {
      if (gh[j] > 0.0) acc += gh[j] * rat.w2->at(j, 0);
    }
    const double clamped = std::clamp(expected_ratio, 0.02, 0.98);
    return SigmoidScalar(acc + std::log(clamped / (1.0 - clamped)));
  };

  // Lines 7-16: sequential decode.
  int prev_route_idx = LocateOnRoute(route, anchors[0].segment, 0);
  MatchedPoint prev = anchors[0];
  out.push_back(anchors[0]);
  bool expired = false;
  for (int i = 0; i + 1 < sparse.size(); ++i) {
    const int missing = NumMissingPoints(sparse.points[i].t,
                                         sparse.points[i + 1].t, epsilon);
    // Deadline checkpoint: every recovered point costs a GRU step plus an
    // attention pass over the route window. Once expired, fill the
    // remaining gaps by holding the nearest anchor (the AssembleSections
    // gap-fill shape) so the output keeps its epsilon-grid timestamps.
    if (!expired && DeadlineExpired()) {
      expired = true;
      NoteDeadlineDegradation();
      CountRecoverEvent("trmma.decode.deadline_degraded");
      obs::RecordEvent("trmma:decode_deadline_degraded@" + std::to_string(i));
    }
    if (expired) {
      const double t_l = sparse.points[i].t;
      const double t_r = sparse.points[i + 1].t;
      for (int j = 1; j <= missing; ++j) {
        const double t_j = t_l + j * epsilon;
        MatchedPoint p = t_j - t_l <= t_r - t_j ? anchors[i] : anchors[i + 1];
        p.t = t_j;
        out.push_back(p);
      }
      out.push_back(anchors[i + 1]);
      continue;
    }
    const int next_anchor_idx =
        LocateOnRoute(route, anchors[i + 1].segment, prev_route_idx);
    const int window_end = std::max(next_anchor_idx, prev_route_idx);
    const double frac_a = RouteFraction(network_, route, prefix,
                                        prev_route_idx, anchors[i].ratio);
    const double frac_b = RouteFraction(network_, route, prefix,
                                        window_end, anchors[i + 1].ratio);
    const double gap_dt =
        std::max(sparse.points[i + 1].t - sparse.points[i].t, 1e-9);
    for (int j = 1; j <= missing; ++j) {
      const double t_j = sparse.points[i].t + j * epsilon;
      const double tau = (t_j - t_begin) / t_span;
      const double expected_frac =
          frac_a + (frac_b - frac_a) * (t_j - sparse.points[i].t) / gap_dt;
      const double prev_frac = RouteFraction(network_, route, prefix,
                                             prev_route_idx, prev.ratio);
      gru_step(prev.segment, prev.ratio, tau, prev_frac, expected_frac);
      classify(tau, prev_frac, expected_frac);
      int best = prev_route_idx;
      for (int k = prev_route_idx; k <= window_end; ++k) {
        if (w[k] > w[best]) best = k;
      }
      const double ratio = predict_ratio(
          ExpectedRatio(network_, route, prefix, best, expected_frac));
      MatchedPoint a;
      a.segment = route[best];
      a.ratio = std::clamp(ratio, 0.0, 0.999999);
      a.t = t_j;
      out.push_back(a);
      prev = a;
      prev_route_idx = best;
    }
    // The observed point a_{i+1} also advances the GRU state.
    gru_step(prev.segment, prev.ratio,
             (sparse.points[i + 1].t - t_begin) / t_span,
             RouteFraction(network_, route, prefix, prev_route_idx,
                           prev.ratio),
             frac_b);
    prev = anchors[i + 1];
    prev_route_idx = LocateOnRoute(route, prev.segment, prev_route_idx);
    out.push_back(anchors[i + 1]);
  }
  return out;
}

}  // namespace trmma
