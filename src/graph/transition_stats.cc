#include "graph/transition_stats.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>

#include "common/logging.h"
#include "graph/shortest_path.h"

namespace trmma {
namespace {

// Strength of the historical-popularity term in the planner cost.
constexpr double kPopularityWeight = 0.25;

// Scales the A* heuristic just below the straight-line distance, far more
// than the few ulps its rounding can add.
constexpr double kHeuristicShrink = 1.0 - 1e-9;

}  // namespace

TransitionStats::TransitionStats(const RoadNetwork& network)
    : network_(network),
      counts_(network.num_segments()),
      totals_(network.num_segments(), 0) {}

void TransitionStats::AddRoute(const Route& route) {
  for (size_t i = 0; i + 1 < route.size(); ++i) {
    const SegmentId from = route[i];
    const SegmentId to = route[i + 1];
    if (from == to) continue;
    ++counts_[from][to];
    ++totals_[from];
  }
}

int TransitionStats::Count(SegmentId from, SegmentId to) const {
  const auto& row = counts_[from];
  auto it = row.find(to);
  return it == row.end() ? 0 : it->second;
}

int TransitionStats::TotalFrom(SegmentId from) const { return totals_[from]; }

double TransitionStats::Probability(SegmentId from, SegmentId to) const {
  const int fanout =
      static_cast<int>(network_.NextSegments(from).size());
  if (fanout == 0) return 0.0;
  // Laplace smoothing over the physical successors.
  return (Count(from, to) + 1.0) / (totals_[from] + fanout);
}

DaRoutePlanner::DaRoutePlanner(const RoadNetwork& network,
                               const TransitionStats& stats)
    : DaRoutePlanner(network, BuildSteps(network, stats)) {}

DaRoutePlanner::DaRoutePlanner(const RoadNetwork& network,
                               std::shared_ptr<const Steps> steps)
    : network_(network),
      steps_(std::move(steps)),
      cost_(network.num_segments(), ShortestPathEngine::kInfinity),
      prev_(network.num_segments(), kInvalidSegment) {}

std::shared_ptr<const DaRoutePlanner::Steps> DaRoutePlanner::BuildSteps(
    const RoadNetwork& network, const TransitionStats& stats) {
  const int n = network.num_segments();
  auto steps = std::make_shared<Steps>();
  steps->first.assign(n + 1, 0);
  for (SegmentId e = 0; e < n; ++e) {
    for (SegmentId next : network.NextSegments(e)) {
      if (next == e) continue;
      const double nll = -std::log(stats.Probability(e, next));
      steps->next.push_back(next);
      steps->step.push_back(network.segment(next).length_m *
                            (1.0 + kPopularityWeight * nll));
    }
    steps->first[e + 1] = static_cast<int>(steps->next.size());
  }
  return steps;
}

std::unique_ptr<DaRoutePlanner> DaRoutePlanner::SharingSteps(
    const DaRoutePlanner& shared) {
  return std::unique_ptr<DaRoutePlanner>(
      new DaRoutePlanner(shared.network_, shared.steps_));
}

PathResult DaRoutePlanner::Plan(SegmentId from, SegmentId to,
                                double max_cost) {
  PathResult result;
  if (from == to) {
    result.found = true;
    result.segments = {from};
    return result;
  }
  for (int sid : touched_) {
    cost_[sid] = ShortestPathEngine::kInfinity;
    prev_[sid] = kInvalidSegment;
  }
  touched_.clear();
  heap_.clear();

  // A*: h(e) is the straight-line distance from the end of e to the end of
  // `to`, a lower bound on the cost of any route between them, shrunk so
  // rounding cannot make it overestimate (DESIGN.md §16).
  const Vec2 target = network_.SegmentEndXy(to);
  auto push = [&](SegmentId e, double g) {
    const double h =
        (network_.SegmentEndXy(e) - target).Norm() * kHeuristicShrink;
    heap_.emplace_back(g + h, e, g);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
  };
  cost_[from] = 0.0;
  touched_.push_back(from);
  push(from, 0.0);

  const int* first = steps_->first.data();
  const SegmentId* next_of = steps_->next.data();
  const double* step = steps_->step.data();
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    const SegmentId e = std::get<1>(heap_.back());
    const double g = std::get<2>(heap_.back());
    heap_.pop_back();
    if (g > cost_[e]) continue;
    if (e == to) break;
    for (int i = first[e]; i < first[e + 1]; ++i) {
      const SegmentId next = next_of[i];
      const double nc = g + step[i];
      if (nc < cost_[next] && nc <= max_cost) {
        if (cost_[next] == ShortestPathEngine::kInfinity) {
          touched_.push_back(next);
        }
        cost_[next] = nc;
        prev_[next] = e;
        push(next, nc);
      }
    }
  }

  if (cost_[to] == ShortestPathEngine::kInfinity) return result;
  result.found = true;
  result.distance_m = cost_[to];
  for (SegmentId at = to; at != kInvalidSegment; at = prev_[at]) {
    result.segments.push_back(at);
  }
  std::reverse(result.segments.begin(), result.segments.end());
  return result;
}

}  // namespace trmma
