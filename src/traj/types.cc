#include "traj/types.h"

#include <algorithm>

namespace trmma {

void NormalizedPointFeatures(const RoadNetwork& network, const Trajectory& traj,
                             double* out, int ld) {
  const LatLngBounds& box = network.bounds();
  const double lat_span = std::max(box.max_lat - box.min_lat, 1e-9);
  const double lng_span = std::max(box.max_lng - box.min_lng, 1e-9);
  const double t0 = traj.points.front().t;
  const double t_span = std::max(traj.points.back().t - t0, 1e-9);
  for (int i = 0; i < traj.size(); ++i) {
    const GpsPoint& p = traj.points[i];
    double* row = out + static_cast<size_t>(i) * ld;
    row[0] = (p.pos.lat - box.min_lat) / lat_span;
    row[1] = (p.pos.lng - box.min_lng) / lng_span;
    row[2] = (p.t - t0) / t_span;
  }
}

GpsPoint GpsFromMatched(const RoadNetwork& network, const MatchedPoint& a) {
  return GpsPoint{network.LatLngOnSegment(a.segment, a.ratio), a.t};
}

MatchedPoint ProjectToSegment(const RoadNetwork& network, const GpsPoint& p,
                              SegmentId segment) {
  const Vec2 xy = network.projection().ToMeters(p.pos);
  const SegmentProjection proj = network.ProjectOnto(segment, xy);
  // Def. 5 requires r in [0,1): clamp the projection's closed upper end.
  return MatchedPoint{segment, std::min(proj.ratio, 0.999999), p.t};
}

}  // namespace trmma
