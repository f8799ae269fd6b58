#ifndef TRMMA_TRAJ_TYPES_H_
#define TRMMA_TRAJ_TYPES_H_

#include <vector>

#include "geo/latlng.h"
#include "graph/road_network.h"
#include "graph/route.h"

namespace trmma {

/// A timestamped GPS observation (paper Def. 2).
struct GpsPoint {
  LatLng pos;
  double t = 0.0;  ///< seconds
};

/// A trajectory: a time-ordered sequence of GPS points (paper Def. 2).
struct Trajectory {
  std::vector<GpsPoint> points;

  int size() const { return static_cast<int>(points.size()); }
  bool empty() const { return points.empty(); }
};

/// A map-matched point a=(e,r,t) (paper Def. 5): position ratio r on
/// segment e at time t.
struct MatchedPoint {
  SegmentId segment = kInvalidSegment;
  double ratio = 0.0;
  double t = 0.0;
};

/// A map-matched ε-sampling trajectory (paper Def. 6).
using MatchedTrajectory = std::vector<MatchedPoint>;

/// One experiment instance: the dense ground truth, its route, and the
/// sparse input derived from it.
struct TrajectorySample {
  Trajectory raw;            ///< dense noisy GPS points at ε-sampling
  MatchedTrajectory truth;   ///< ground-truth matched points, aligned with raw
  Route route;               ///< ground-truth route (deduplicated, connected)
  Trajectory sparse;         ///< the sparse trajectory T given to methods
  std::vector<int> sparse_indices;  ///< indices of sparse points in raw/truth
};

/// Min-max normalized [lat, lng, t] of every point of a non-empty
/// trajectory (paper §IV-B), the point features of MMA, TRMMA and the
/// learned baselines: lat/lng over the network's bounding box, t over the
/// trajectory's own time span. Point i's three values go to
/// out[i*ld .. i*ld+3).
void NormalizedPointFeatures(const RoadNetwork& network, const Trajectory& traj,
                             double* out, int ld);

/// GPS coordinate of a matched point via interpolation on its segment.
GpsPoint GpsFromMatched(const RoadNetwork& network, const MatchedPoint& a);

/// Projects a GPS point onto the given segment, producing a matched point
/// (paper Algorithm 2 lines 2-4).
MatchedPoint ProjectToSegment(const RoadNetwork& network, const GpsPoint& p,
                              SegmentId segment);

}  // namespace trmma

#endif  // TRMMA_TRAJ_TYPES_H_
