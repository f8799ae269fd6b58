#include "graph/road_network.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/mem_stats.h"

namespace trmma {

NodeId RoadNetwork::AddNode(const LatLng& pos) {
  TRMMA_CHECK(!finalized_);
  nodes_.push_back(RoadNode{pos, {}});
  return static_cast<NodeId>(nodes_.size() - 1);
}

StatusOr<SegmentId> RoadNetwork::AddSegment(NodeId from, NodeId to,
                                            double speed_mps) {
  if (finalized_) {
    return Status::FailedPrecondition("AddSegment after Finalize");
  }
  if (from < 0 || from >= num_nodes() || to < 0 || to >= num_nodes()) {
    return Status::InvalidArgument("segment endpoint out of range");
  }
  if (from == to) {
    return Status::InvalidArgument("self-loop segments are not supported");
  }
  if (speed_mps <= 0.0) {
    return Status::InvalidArgument("speed must be positive");
  }
  segments_.push_back(RoadSegment{from, to, 0.0, speed_mps});
  return static_cast<SegmentId>(segments_.size() - 1);
}

Status RoadNetwork::Finalize() {
  if (finalized_) return Status::FailedPrecondition("already finalized");
  if (nodes_.empty()) return Status::FailedPrecondition("no nodes");

  // Center the projection on the centroid of all intersections.
  double lat = 0.0;
  double lng = 0.0;
  for (const auto& n : nodes_) {
    lat += n.pos.lat;
    lng += n.pos.lng;
    bounds_.min_lat = std::min(bounds_.min_lat, n.pos.lat);
    bounds_.max_lat = std::max(bounds_.max_lat, n.pos.lat);
    bounds_.min_lng = std::min(bounds_.min_lng, n.pos.lng);
    bounds_.max_lng = std::max(bounds_.max_lng, n.pos.lng);
  }
  projection_ = LocalProjection(
      LatLng{lat / nodes_.size(), lng / nodes_.size()});
  for (auto& n : nodes_) n.xy = projection_.ToMeters(n.pos);
  const Vec2& first = nodes_.front().xy;
  xy_bounds_ = BBox{first.x, first.y, first.x, first.y};
  for (const auto& n : nodes_) {
    xy_bounds_ = BBox::Union(xy_bounds_, BBox{n.xy.x, n.xy.y, n.xy.x, n.xy.y});
  }

  out_segments_.assign(nodes_.size(), {});
  in_segments_.assign(nodes_.size(), {});
  for (SegmentId id = 0; id < num_segments(); ++id) {
    auto& seg = segments_[id];
    seg.length_m = (nodes_[seg.to].xy - nodes_[seg.from].xy).Norm();
    if (seg.length_m <= 0.0) {
      return Status::InvalidArgument("zero-length segment " +
                                     std::to_string(id));
    }
    out_segments_[seg.from].push_back(id);
    in_segments_[seg.to].push_back(id);
  }
  finalized_ = true;
  obs::MemSet(obs::MemTag::kGraph, ApproxBytes());
  return Status::OK();
}

int64_t RoadNetwork::ApproxBytes() const {
  int64_t bytes = static_cast<int64_t>(nodes_.capacity() * sizeof(RoadNode) +
                                       segments_.capacity() *
                                           sizeof(RoadSegment));
  for (const auto* adj : {&out_segments_, &in_segments_}) {
    bytes += static_cast<int64_t>(adj->capacity() *
                                  sizeof(std::vector<SegmentId>));
    for (const auto& v : *adj) {
      bytes += static_cast<int64_t>(v.capacity() * sizeof(SegmentId));
    }
  }
  return bytes;
}

Vec2 RoadNetwork::PointOnSegment(SegmentId id, double r) const {
  const auto& seg = segments_[id];
  return InterpolateOnSegment(nodes_[seg.from].xy, nodes_[seg.to].xy, r);
}

LatLng RoadNetwork::LatLngOnSegment(SegmentId id, double r) const {
  return projection_.ToLatLng(PointOnSegment(id, r));
}

SegmentProjection RoadNetwork::ProjectOnto(SegmentId id, const Vec2& p) const {
  const auto& seg = segments_[id];
  return ProjectOntoSegment(p, nodes_[seg.from].xy, nodes_[seg.to].xy);
}

int RoadNetwork::MaxOutDegree() const {
  int best = 0;
  for (const auto& outs : out_segments_) {
    best = std::max(best, static_cast<int>(outs.size()));
  }
  return best;
}

}  // namespace trmma
