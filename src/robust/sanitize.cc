#include "robust/sanitize.h"

#include <cmath>

#include "obs/metrics.h"

namespace trmma {
namespace {

bool IsFinitePoint(const GpsPoint& p) {
  return std::isfinite(p.pos.lat) && std::isfinite(p.pos.lng) &&
         std::isfinite(p.t);
}

void CountReport(const SanitizeReport& report, bool failed) {
  if (!obs::MetricsEnabled()) return;
  obs::MetricRegistry& reg = obs::MetricRegistry::Global();
  static obs::Counter* const points =
      reg.GetCounter("robust.sanitize.points_in");
  static obs::Counter* const dropped =
      reg.GetCounter("robust.sanitize.points_dropped");
  static obs::Counter* const clamped =
      reg.GetCounter("robust.sanitize.points_clamped");
  static obs::Counter* const splits = reg.GetCounter("robust.sanitize.splits");
  static obs::Counter* const empty = reg.GetCounter("robust.sanitize.emptied");
  points->Increment(report.input_points);
  dropped->Increment(report.dropped + report.discarded_points);
  clamped->Increment(report.clamped);
  splits->Increment(report.splits);
  if (failed) empty->Increment();
}

}  // namespace

SanitizeConfig SanitizeConfig::ForNetwork(const RoadNetwork& network) {
  SanitizeConfig config;
  config.network = &network;
  return config;
}

std::vector<Trajectory> SanitizeTrajectory(const Trajectory& traj,
                                           const SanitizeConfig& config,
                                           SanitizeReport* report) {
  SanitizeReport local;
  SanitizeReport& rep = report != nullptr ? *report : local;
  rep = SanitizeReport{};
  rep.input_points = traj.size();

  const bool have_net =
      config.network != nullptr && config.network->num_nodes() > 0;
  const BBox box = have_net
                       ? config.network->xy_bounds().Expanded(
                             config.bbox_margin_m)
                       : BBox{};

  // Projection for meter-space distances: the network's when available,
  // otherwise anchored at the first finite input point.
  LocalProjection proj;
  if (have_net) {
    proj = config.network->projection();
  } else {
    for (const GpsPoint& p : traj.points) {
      if (IsFinitePoint(p)) {
        proj = LocalProjection(p.pos);
        break;
      }
    }
  }

  std::vector<Trajectory> pieces;
  Trajectory piece;
  Vec2 last_xy{0, 0};
  auto cut = [&] {
    if (!piece.empty()) {
      pieces.push_back(std::move(piece));
      piece = Trajectory{};
    }
  };

  for (const GpsPoint& input : traj.points) {
    GpsPoint p = input;
    // Rule 1: finiteness. Clamping a NaN is undefined; always drop.
    if (!IsFinitePoint(p)) {
      ++rep.nonfinite;
      ++rep.dropped;
      continue;
    }
    Vec2 xy = proj.ToMeters(p.pos);

    // Rule 2: inside the mapped area (+ margin).
    if (have_net && !box.Contains(xy)) {
      ++rep.out_of_bbox;
      if (config.policy == RepairPolicy::kClamp) {
        xy.x = std::min(std::max(xy.x, box.min_x), box.max_x);
        xy.y = std::min(std::max(xy.y, box.min_y), box.max_y);
        p.pos = proj.ToLatLng(xy);
        ++rep.clamped;
      } else {
        // kSplit also drops: an off-map fix carries no usable position.
        ++rep.dropped;
        continue;
      }
    }

    if (!piece.empty()) {
      const GpsPoint& prev = piece.points.back();
      // Rule 3: strictly increasing timestamps.
      if (p.t <= prev.t) {
        ++rep.non_monotonic;
        if (config.policy == RepairPolicy::kSplit) {
          ++rep.splits;
          cut();
          // fall through: p starts the next piece
        } else {
          ++rep.dropped;
          continue;
        }
      }
    }
    if (!piece.empty()) {
      // Rule 4: speed-feasible motion between consecutive points.
      const GpsPoint& prev = piece.points.back();
      const double dt = p.t - prev.t;
      const Vec2 delta = xy - last_xy;
      const double dist = delta.Norm();
      if (dist > config.max_speed_mps * dt) {
        ++rep.speed_violations;
        if (config.policy == RepairPolicy::kClamp) {
          const double scale = config.max_speed_mps * dt / dist;
          xy = last_xy + Vec2{delta.x * scale, delta.y * scale};
          p.pos = proj.ToLatLng(xy);
          ++rep.clamped;
        } else if (config.policy == RepairPolicy::kSplit) {
          ++rep.splits;
          cut();
        } else {
          ++rep.dropped;
          continue;
        }
      }
    }
    piece.points.push_back(p);
    last_xy = xy;
  }
  cut();

  // Discard pieces too short to recover from.
  std::vector<Trajectory> out;
  for (Trajectory& candidate : pieces) {
    if (candidate.size() >= std::max(config.min_points, 1)) {
      out.push_back(std::move(candidate));
    } else {
      rep.discarded_points += candidate.size();
    }
  }
  CountReport(rep, out.empty());
  return out;
}

}  // namespace trmma
