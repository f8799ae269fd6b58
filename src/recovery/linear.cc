#include "recovery/linear.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "graph/route.h"

namespace trmma {

int NumMissingPoints(double t1, double t2, double epsilon) {
  const int n = static_cast<int>(std::lround((t2 - t1) / epsilon)) - 1;
  return std::max(n, 0);
}

MatchedPoint WalkAlongRoute(const RoadNetwork& network, const Route& route,
                            int& idx, double ratio, double dist_m) {
  TRMMA_CHECK(!route.empty());
  idx = std::clamp(idx, 0, static_cast<int>(route.size()) - 1);
  double pos_m = ratio * network.segment(route[idx]).length_m + dist_m;
  while (true) {
    const double len = network.segment(route[idx]).length_m;
    if (pos_m < len || idx + 1 == static_cast<int>(route.size())) {
      const double r = std::clamp(pos_m / len, 0.0, 0.999999);
      return MatchedPoint{route[idx], r, 0.0};
    }
    pos_m -= len;
    ++idx;
  }
}

LinearRecovery::LinearRecovery(const RoadNetwork& network, MapMatcher* matcher,
                               DaRoutePlanner* planner,
                               ShortestPathEngine* fallback, std::string label)
    : network_(network), matcher_(matcher), planner_(planner),
      fallback_(fallback), label_(std::move(label)) {}

MatchedTrajectory LinearRecovery::Recover(const Trajectory& sparse,
                                          double epsilon) {
  MatchedTrajectory out;
  if (sparse.empty()) return out;

  const std::vector<SegmentId> segs = matcher_->MatchPoints(sparse);
  const Route route = StitchRoute(network_, *planner_, *fallback_, segs);

  // Observed matched points + their segment's index on the route.
  const int n = sparse.size();
  std::vector<MatchedPoint> anchors(n);
  std::vector<int> route_idx(n, 0);
  int cursor = 0;
  for (int i = 0; i < n; ++i) {
    anchors[i] = ProjectToSegment(network_, sparse.points[i], segs[i]);
    // First occurrence of the segment at or after the previous anchor.
    int found = -1;
    for (int k = cursor; k < static_cast<int>(route.size()); ++k) {
      if (route[k] == segs[i]) {
        found = k;
        break;
      }
    }
    if (found < 0) {
      for (int k = 0; k < static_cast<int>(route.size()); ++k) {
        if (route[k] == segs[i]) {
          found = k;
          break;
        }
      }
    }
    route_idx[i] = found >= 0 ? found : cursor;
    cursor = route_idx[i];
  }

  for (int i = 0; i < n; ++i) {
    out.push_back(anchors[i]);
    if (i + 1 == n) break;
    const int missing = NumMissingPoints(sparse.points[i].t,
                                         sparse.points[i + 1].t, epsilon);
    if (missing == 0) continue;

    const bool forward =
        route_idx[i + 1] > route_idx[i] ||
        (route_idx[i + 1] == route_idx[i] &&
         anchors[i + 1].ratio >= anchors[i].ratio);
    double total = 0.0;
    if (forward) {
      total = DistanceAlongRoute(network_, route, route_idx[i],
                                 anchors[i].ratio, route_idx[i + 1],
                                 anchors[i + 1].ratio);
    }
    int idx = route_idx[i];
    for (int j = 1; j <= missing; ++j) {
      const double target = total * j / (missing + 1);
      MatchedPoint a = WalkAlongRoute(network_, route, idx,
                                      anchors[i].ratio, target);
      // WalkAlongRoute moves `idx`, but distance is measured from the
      // anchor, so restart the ratio base only when staying on course.
      a.t = sparse.points[i].t + j * epsilon;
      out.push_back(a);
      idx = route_idx[i];  // re-walk from the anchor for exactness
    }
  }
  return out;
}

}  // namespace trmma
