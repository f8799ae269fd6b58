#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <queue>

#include "common/random.h"
#include "gen/presets.h"
#include "graph/transition_stats.h"
#include "tests/test_util.h"

namespace trmma {
namespace {

/// The planner's search before it became A*: plain Dijkstra evaluating each
/// step cost from the statistics on every relaxation. The reference the A*
/// planner must agree with.
class ReferenceDijkstraPlanner {
 public:
  ReferenceDijkstraPlanner(const RoadNetwork& network,
                           const TransitionStats& stats)
      : network_(network), stats_(stats) {}

  PathResult Plan(SegmentId from, SegmentId to, double max_cost = 3.0e4) {
    PathResult result;
    if (from == to) {
      result.found = true;
      result.segments = {from};
      return result;
    }
    std::vector<double> cost(network_.num_segments(),
                             ShortestPathEngine::kInfinity);
    std::vector<SegmentId> prev(network_.num_segments(), kInvalidSegment);
    using QueueItem = std::pair<double, SegmentId>;
    std::priority_queue<QueueItem, std::vector<QueueItem>, std::greater<>>
        queue;
    cost[from] = 0.0;
    queue.push({0.0, from});
    while (!queue.empty()) {
      const auto [c, e] = queue.top();
      queue.pop();
      if (c > cost[e]) continue;
      if (e == to) break;
      if (c > max_cost) break;
      for (SegmentId next : network_.NextSegments(e)) {
        if (next == e) continue;
        const double nll = -std::log(stats_.Probability(e, next));
        const double step =
            network_.segment(next).length_m * (1.0 + 0.25 * nll);
        const double nc = c + step;
        if (nc < cost[next] && nc <= max_cost) {
          cost[next] = nc;
          prev[next] = e;
          queue.push({nc, next});
        }
      }
    }
    if (cost[to] == ShortestPathEngine::kInfinity) return result;
    result.found = true;
    result.distance_m = cost[to];
    for (SegmentId at = to; at != kInvalidSegment; at = prev[at]) {
      result.segments.push_back(at);
    }
    std::reverse(result.segments.begin(), result.segments.end());
    return result;
  }

 private:
  const RoadNetwork& network_;
  const TransitionStats& stats_;
};

/// Same `found`, same segments and the same bits of `distance_m`.
::testing::AssertionResult SamePath(const PathResult& got,
                                    const PathResult& want) {
  if (got.found != want.found) {
    return ::testing::AssertionFailure()
           << "found " << got.found << " vs " << want.found;
  }
  if (got.segments != want.segments) {
    return ::testing::AssertionFailure()
           << "routes differ: " << got.segments.size() << " vs "
           << want.segments.size() << " segments";
  }
  if (std::bit_cast<uint64_t>(got.distance_m) !=
      std::bit_cast<uint64_t>(want.distance_m)) {
    return ::testing::AssertionFailure()
           << "distance " << got.distance_m << " vs " << want.distance_m;
  }
  return ::testing::AssertionSuccess();
}

SegmentId FindSegment(const RoadNetwork& g, NodeId from, NodeId to) {
  for (SegmentId s = 0; s < g.num_segments(); ++s) {
    if (g.segment(s).from == from && g.segment(s).to == to) return s;
  }
  return kInvalidSegment;
}

TEST(TransitionStatsTest, CountsRoutes) {
  auto g = test::MakeGrid(4, 1, 100.0);
  ASSERT_NE(g, nullptr);
  TransitionStats stats(*g);
  // Find the eastbound chain.
  std::vector<SegmentId> east;
  for (SegmentId i = 0; i < g->num_segments(); ++i) {
    if (g->segment(i).to == g->segment(i).from + 1) east.push_back(i);
  }
  ASSERT_EQ(east.size(), 3u);
  stats.AddRoute({east[0], east[1], east[2]});
  stats.AddRoute({east[0], east[1]});
  EXPECT_EQ(stats.Count(east[0], east[1]), 2);
  EXPECT_EQ(stats.Count(east[1], east[2]), 1);
  EXPECT_EQ(stats.Count(east[2], east[0]), 0);
  EXPECT_EQ(stats.TotalFrom(east[0]), 2);
}

TEST(TransitionStatsTest, ProbabilitySumsToOneOverSuccessors) {
  auto g = test::MakeCityNetwork();
  ASSERT_NE(g, nullptr);
  TransitionStats stats(*g);
  // Add some random routes.
  ShortestPathEngine engine(*g);
  Rng rng(2);
  for (int i = 0; i < 20; ++i) {
    auto r = engine.NodeToNode(
        static_cast<NodeId>(rng.UniformInt(g->num_nodes())),
        static_cast<NodeId>(rng.UniformInt(g->num_nodes())));
    if (r.found) stats.AddRoute(r.segments);
  }
  for (SegmentId e = 0; e < g->num_segments(); ++e) {
    if (g->NextSegments(e).empty()) continue;
    double total = 0.0;
    for (SegmentId n : g->NextSegments(e)) total += stats.Probability(e, n);
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(TransitionStatsTest, ObservedTransitionMoreLikely) {
  auto g = test::MakeGrid(3, 3, 100.0);
  ASSERT_NE(g, nullptr);
  TransitionStats stats(*g);
  SegmentId e = 0;
  const auto& nexts = g->NextSegments(e);
  ASSERT_GE(nexts.size(), 2u);
  for (int i = 0; i < 10; ++i) stats.AddRoute({e, nexts[0]});
  EXPECT_GT(stats.Probability(e, nexts[0]), stats.Probability(e, nexts[1]));
}

TEST(DaRoutePlannerTest, PlansConnectedRoutes) {
  auto g = test::MakeCityNetwork(5);
  ASSERT_NE(g, nullptr);
  TransitionStats stats(*g);
  DaRoutePlanner planner(*g, stats);
  Rng rng(7);
  for (int trial = 0; trial < 40; ++trial) {
    SegmentId a = static_cast<SegmentId>(rng.UniformInt(g->num_segments()));
    SegmentId b = static_cast<SegmentId>(rng.UniformInt(g->num_segments()));
    auto r = planner.Plan(a, b);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.segments.front(), a);
    EXPECT_EQ(r.segments.back(), b);
    EXPECT_TRUE(IsConnectedRoute(*g, r.segments));
  }
}

TEST(DaRoutePlannerTest, SameSegmentTrivial) {
  auto g = test::MakeGrid(3, 3);
  ASSERT_NE(g, nullptr);
  TransitionStats stats(*g);
  DaRoutePlanner planner(*g, stats);
  auto r = planner.Plan(5, 5);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.segments, Route{5});
}

TEST(DaRoutePlannerTest, PrefersPopularDetour) {
  // Grid with two equal-length L-shaped routes from corner to corner of a
  // 2x2 block; history makes one of them popular.
  auto g = test::MakeGrid(3, 3, 100.0);
  ASSERT_NE(g, nullptr);
  ShortestPathEngine engine(*g);
  // From node 0 (SW) to node 8 (NE) there are several 400m paths.
  auto base = engine.NodeToNode(0, 8);
  ASSERT_TRUE(base.found);
  TransitionStats stats(*g);
  // Teach the planner an alternative: go north first (via node 3, 6, 7, 8).
  auto north_first = engine.NodeToNode(0, 6);
  auto then_east = engine.NodeToNode(6, 8);
  ASSERT_TRUE(north_first.found);
  ASSERT_TRUE(then_east.found);
  Route taught = north_first.segments;
  for (SegmentId s : then_east.segments) taught.push_back(s);
  for (int i = 0; i < 50; ++i) stats.AddRoute(taught);

  DaRoutePlanner planner(*g, stats);
  auto planned = planner.Plan(taught.front(), taught.back());
  ASSERT_TRUE(planned.found);
  EXPECT_EQ(planned.segments, taught);
}

TEST(DaRoutePlannerTest, BudgetExhaustionReturnsNotFound) {
  auto g = test::MakeGrid(10, 1, 100.0);
  ASSERT_NE(g, nullptr);
  TransitionStats stats(*g);
  DaRoutePlanner planner(*g, stats);
  std::vector<SegmentId> east;
  for (SegmentId i = 0; i < g->num_segments(); ++i) {
    if (g->segment(i).to == g->segment(i).from + 1) east.push_back(i);
  }
  auto r = planner.Plan(east.front(), east.back(), /*max_cost=*/50.0);
  EXPECT_FALSE(r.found);
}

// Every consecutive truth-anchor pair of each city's smoke-scale test split,
// both ways, random pairs, and budgets at and below each route's cost: the
// A* planner must return the reference Dijkstra's answer bit for bit.
TEST(DaRoutePlannerTest, AStarMatchesDijkstraOnCityPresets) {
  for (const std::string& city : CityNames()) {
    SCOPED_TRACE(city);
    auto dataset = BuildCityDatasetByName(city, city == "BJ" ? 50 : 80);
    ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
    const RoadNetwork& g = *dataset->network;
    TransitionStats stats(g);
    for (int idx : dataset->train_idx) {
      stats.AddRoute(dataset->samples[idx].route);
    }
    DaRoutePlanner planner(g, stats);
    ReferenceDijkstraPlanner reference(g, stats);

    std::vector<std::pair<SegmentId, SegmentId>> pairs;
    for (int idx : dataset->test_idx) {
      const TrajectorySample& sample = dataset->samples[idx];
      for (size_t i = 0; i + 1 < sample.sparse_indices.size(); ++i) {
        const SegmentId a = sample.truth[sample.sparse_indices[i]].segment;
        const SegmentId b = sample.truth[sample.sparse_indices[i + 1]].segment;
        pairs.push_back({a, b});
        pairs.push_back({b, a});
      }
    }
    const size_t anchor_pairs = pairs.size();
    EXPECT_GT(anchor_pairs, 50u);
    Rng rng(17);
    for (int i = 0; i < 300; ++i) {
      pairs.push_back(
          {static_cast<SegmentId>(rng.UniformInt(g.num_segments())),
           static_cast<SegmentId>(rng.UniformInt(g.num_segments()))});
    }

    int found = 0;
    int ran_out = 0;
    for (size_t p = 0; p < pairs.size(); ++p) {
      const auto [a, b] = pairs[p];
      const PathResult want = reference.Plan(a, b);
      ASSERT_TRUE(SamePath(planner.Plan(a, b), want))
          << "pair " << p << ": " << a << " -> " << b;
      if (!want.found || want.distance_m <= 0.0) continue;
      ++found;
      // A budget of exactly the route's cost still finds it; half of it
      // runs out.
      for (double budget : {want.distance_m, 0.5 * want.distance_m}) {
        const PathResult capped = reference.Plan(a, b, budget);
        ran_out += capped.found ? 0 : 1;
        ASSERT_TRUE(SamePath(planner.Plan(a, b, budget), capped))
            << "pair " << p << ": " << a << " -> " << b << " budget "
            << budget;
      }
    }
    EXPECT_GT(found, static_cast<int>(anchor_pairs) / 2);
    EXPECT_GT(ran_out, 0);
  }
}

// Without statistics every step of a 2x2 grid costs the same, so from the
// south-west corner there are two cheapest routes to the segment leaving
// the north-east corner. The route is only promised to be one of them.
TEST(DaRoutePlannerTest, AStarTieKeepsAnEqualCostRoute) {
  auto g = test::MakeGrid(2, 2, 100.0);
  ASSERT_NE(g, nullptr);
  TransitionStats stats(*g);
  DaRoutePlanner planner(*g, stats);
  ReferenceDijkstraPlanner reference(*g, stats);
  // Nodes: 0 SW, 1 SE, 2 NW, 3 NE. Enter 0 from 1, leave 3 towards 1.
  const SegmentId from = FindSegment(*g, 1, 0);
  const SegmentId to = FindSegment(*g, 3, 1);
  ASSERT_NE(from, kInvalidSegment);
  ASSERT_NE(to, kInvalidSegment);
  const PathResult want = reference.Plan(from, to);
  ASSERT_TRUE(want.found);
  ASSERT_EQ(want.segments.size(), 4u);

  const PathResult got = planner.Plan(from, to);
  ASSERT_TRUE(got.found);
  EXPECT_EQ(got.segments.size(), 4u);
  EXPECT_EQ(got.segments.front(), from);
  EXPECT_EQ(got.segments.back(), to);
  EXPECT_TRUE(IsConnectedRoute(*g, got.segments));
  EXPECT_EQ(std::bit_cast<uint64_t>(got.distance_m),
            std::bit_cast<uint64_t>(want.distance_m));
}

}  // namespace
}  // namespace trmma
