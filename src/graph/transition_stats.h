#ifndef TRMMA_GRAPH_TRANSITION_STATS_H_
#define TRMMA_GRAPH_TRANSITION_STATS_H_

#include <tuple>
#include <unordered_map>
#include <vector>

#include "graph/road_network.h"
#include "graph/route.h"
#include "graph/shortest_path.h"

namespace trmma {

/// Historical segment-to-segment transition counts harvested from training
/// routes, plus the DA-style route planner built on them (the "route
/// planning method relying on basic statistical counts" the paper adopts
/// from [2] for its own method and all baselines).
class TransitionStats {
 public:
  explicit TransitionStats(const RoadNetwork& network);

  TransitionStats(const TransitionStats&) = delete;
  TransitionStats& operator=(const TransitionStats&) = delete;

  /// Accumulates every consecutive segment pair of `route`.
  void AddRoute(const Route& route);

  /// Observed count for the transition from -> to (0 if never seen).
  int Count(SegmentId from, SegmentId to) const;

  /// Total outgoing observations from `from`.
  int TotalFrom(SegmentId from) const;

  /// Laplace-smoothed transition probability P(to | from) over the physical
  /// successors of `from`.
  double Probability(SegmentId from, SegmentId to) const;

 private:
  const RoadNetwork& network_;
  std::vector<std::unordered_map<SegmentId, int>> counts_;
  std::vector<int> totals_;
};

/// Plans routes between segments preferring historically popular
/// transitions. Cost of entering segment e' from e is
///   length(e') * (1 + kPopularityWeight * (-log P(e'|e)))
/// so the planner stays goal-directed (length term) but favors observed
/// driving behaviour. With no statistics P(e'|e) is 1/fanout(e), so each
/// step costs length(e') * (1 + kPopularityWeight * ln fanout(e)): the
/// planner then prefers roads through low-fanout intersections, not the
/// plain shortest path.
///
/// Every step cost is computed once, at construction, so `stats` must be
/// final by then: routes added to it later do not reach the planner.
/// Plan() is an A* search under a consistent straight-line heuristic
/// (DESIGN.md §16).
class DaRoutePlanner {
 public:
  DaRoutePlanner(const RoadNetwork& network, const TransitionStats& stats);

  DaRoutePlanner(const DaRoutePlanner&) = delete;
  DaRoutePlanner& operator=(const DaRoutePlanner&) = delete;

  /// Route from `from` to `to`, both included. `max_cost` caps the search
  /// (scaled cost units ~= meters). found=false when disconnected within
  /// the budget.
  PathResult Plan(SegmentId from, SegmentId to, double max_cost = 3.0e4);

 private:
  /// Queue entry: estimated total cost f = g + h, segment, cost so far g.
  /// Popped in (f, segment) order.
  using QueueItem = std::tuple<double, SegmentId, double>;

  const RoadNetwork& network_;
  // Step costs in CSR form: the transitions out of segment e are
  // next_[i], entered at cost step_[i], for i in [first_[e], first_[e+1]).
  std::vector<int> first_;
  std::vector<SegmentId> next_;
  std::vector<double> step_;
  std::vector<double> cost_;
  std::vector<SegmentId> prev_;
  std::vector<int> touched_;
  std::vector<QueueItem> heap_;
};

}  // namespace trmma

#endif  // TRMMA_GRAPH_TRANSITION_STATS_H_
