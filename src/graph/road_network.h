#ifndef TRMMA_GRAPH_ROAD_NETWORK_H_
#define TRMMA_GRAPH_ROAD_NETWORK_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "geo/geometry.h"
#include "geo/latlng.h"

namespace trmma {

using NodeId = int32_t;
using SegmentId = int32_t;

inline constexpr NodeId kInvalidNode = -1;
inline constexpr SegmentId kInvalidSegment = -1;

/// An intersection or road end (paper Def. 1).
struct RoadNode {
  LatLng pos;
  Vec2 xy;  ///< local-meter coordinates, filled by Finalize()
};

/// A directed road segment e=(u,v) (paper Def. 1).
struct RoadSegment {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  double length_m = 0.0;    ///< planar length, filled by Finalize()
  double speed_mps = 13.9;  ///< free-flow speed used by the simulator
};

/// Latitude/longitude bounding box; empty (min > max) until it holds a
/// point.
struct LatLngBounds {
  double min_lat = 1e30;
  double max_lat = -1e30;
  double min_lng = 1e30;
  double max_lng = -1e30;
};

/// A directed road network G=(V,E). Build with AddNode/AddSegment, then call
/// Finalize() exactly once before using any query method.
class RoadNetwork {
 public:
  RoadNetwork() = default;

  RoadNetwork(const RoadNetwork&) = delete;
  RoadNetwork& operator=(const RoadNetwork&) = delete;
  RoadNetwork(RoadNetwork&&) = default;
  RoadNetwork& operator=(RoadNetwork&&) = default;

  /// Adds an intersection at the given coordinate and returns its id.
  NodeId AddNode(const LatLng& pos);

  /// Adds a directed segment. Returns an error for bad endpoints or
  /// nonpositive speed.
  StatusOr<SegmentId> AddSegment(NodeId from, NodeId to, double speed_mps);

  /// Computes the local projection, planar coordinates, segment lengths and
  /// adjacency lists. Must be called once after construction.
  Status Finalize();

  bool finalized() const { return finalized_; }

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int num_segments() const { return static_cast<int>(segments_.size()); }

  const RoadNode& node(NodeId id) const { return nodes_[id]; }
  const RoadSegment& segment(SegmentId id) const { return segments_[id]; }

  /// Segments leaving / entering a node.
  const std::vector<SegmentId>& OutSegments(NodeId id) const {
    return out_segments_[id];
  }
  const std::vector<SegmentId>& InSegments(NodeId id) const {
    return in_segments_[id];
  }

  /// Segments that can directly follow `id` on a route (those leaving
  /// segment(id).to).
  const std::vector<SegmentId>& NextSegments(SegmentId id) const {
    return out_segments_[segments_[id].to];
  }

  /// Planar endpoints of a segment.
  Vec2 SegmentStartXy(SegmentId id) const { return nodes_[segments_[id].from].xy; }
  Vec2 SegmentEndXy(SegmentId id) const { return nodes_[segments_[id].to].xy; }

  /// Planar point at position ratio r on a segment.
  Vec2 PointOnSegment(SegmentId id, double r) const;

  /// Coordinate at position ratio r on a segment.
  LatLng LatLngOnSegment(SegmentId id, double r) const;

  /// Perpendicular projection of a planar point onto a segment.
  SegmentProjection ProjectOnto(SegmentId id, const Vec2& p) const;

  const LocalProjection& projection() const { return projection_; }

  /// Bounding box of all intersections, computed once by Finalize(); the
  /// min-max normalization range of the learned models' point features.
  const LatLngBounds& bounds() const { return bounds_; }

  /// Planar bounding box of all intersections, computed once by
  /// Finalize().
  const BBox& xy_bounds() const { return xy_bounds_; }

  /// Maximum out-degree over all nodes (the paper's deg~).
  int MaxOutDegree() const;

  /// Rough heap footprint (capacity-based) of nodes, segments and adjacency
  /// lists; feeds the `graph` subsystem memory gauge after Finalize().
  int64_t ApproxBytes() const;

 private:
  bool finalized_ = false;
  std::vector<RoadNode> nodes_;
  std::vector<RoadSegment> segments_;
  std::vector<std::vector<SegmentId>> out_segments_;
  std::vector<std::vector<SegmentId>> in_segments_;
  LocalProjection projection_;
  LatLngBounds bounds_;
  BBox xy_bounds_;
};

}  // namespace trmma

#endif  // TRMMA_GRAPH_ROAD_NETWORK_H_
