#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "graph/spatial_index.h"
#include "tests/test_util.h"

namespace trmma {
namespace {

/// Brute-force reference for KNearest.
std::vector<SegmentHit> BruteKnn(const RoadNetwork& g, const Vec2& q, int k) {
  std::vector<SegmentHit> all;
  for (SegmentId i = 0; i < g.num_segments(); ++i) {
    const auto proj = g.ProjectOnto(i, q);
    all.push_back({i, proj.distance, proj.ratio});
  }
  std::sort(all.begin(), all.end(), [](const SegmentHit& a, const SegmentHit& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.segment < b.segment;
  });
  if (static_cast<int>(all.size()) > k) all.resize(k);
  return all;
}

TEST(SegmentRTreeTest, SingleNearestOnGrid) {
  auto g = test::MakeGrid(4, 4, 100.0);
  ASSERT_NE(g, nullptr);
  SegmentRTree tree(*g);
  // A point 10m above the middle of the segment from (0,0) to (1,0).
  Vec2 q = g->PointOnSegment(0, 0.5);
  q.y += 10.0;
  auto hits = tree.KNearest(q, 1);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NEAR(hits[0].distance, 10.0, 0.6);
}

TEST(SegmentRTreeTest, KLargerThanSegmentCountReturnsAll) {
  auto g = test::MakeGrid(2, 2, 100.0);
  ASSERT_NE(g, nullptr);
  SegmentRTree tree(*g);
  auto hits = tree.KNearest({0, 0}, 100);
  EXPECT_EQ(static_cast<int>(hits.size()), g->num_segments());
}

TEST(SegmentRTreeTest, ResultsSortedByDistance) {
  auto g = test::MakeCityNetwork();
  ASSERT_NE(g, nullptr);
  SegmentRTree tree(*g);
  auto hits = tree.KNearest({120.0, 80.0}, 10);
  for (size_t i = 1; i < hits.size(); ++i) {
    EXPECT_LE(hits[i - 1].distance, hits[i].distance + 1e-12);
  }
}

/// Property: R-tree kNN equals brute force, across tree shapes and seeds.
class RTreeVsBruteTest
    : public testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RTreeVsBruteTest, MatchesBruteForce) {
  const int leaf_capacity = std::get<0>(GetParam());
  const uint64_t seed = std::get<1>(GetParam());
  auto g = test::MakeCityNetwork(seed);
  ASSERT_NE(g, nullptr);
  SegmentRTree tree(*g, leaf_capacity);
  Rng rng(seed * 7 + 1);
  for (int trial = 0; trial < 25; ++trial) {
    Vec2 q{rng.Uniform(-200, 1200), rng.Uniform(-200, 900)};
    for (int k : {1, 5, 10}) {
      auto fast = tree.KNearest(q, k);
      auto slow = BruteKnn(*g, q, k);
      ASSERT_EQ(fast.size(), slow.size());
      for (size_t i = 0; i < fast.size(); ++i) {
        EXPECT_NEAR(fast[i].distance, slow[i].distance, 1e-9);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RTreeVsBruteTest,
    testing::Combine(testing::Values(2, 4, 16, 64), testing::Values(3, 4, 5)));

TEST(SegmentRTreeTest, WithinRadiusMatchesBruteForce) {
  auto g = test::MakeCityNetwork(9);
  ASSERT_NE(g, nullptr);
  SegmentRTree tree(*g);
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    Vec2 q{rng.Uniform(0, 900), rng.Uniform(0, 700)};
    const double radius = rng.Uniform(20, 300);
    auto hits = tree.WithinRadius(q, radius);
    // Every hit within radius, sorted.
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_LE(hits[i].distance, radius);
      if (i > 0) {
        EXPECT_LE(hits[i - 1].distance, hits[i].distance + 1e-12);
      }
    }
    // Count matches brute force.
    int expected = 0;
    for (SegmentId s = 0; s < g->num_segments(); ++s) {
      if (g->ProjectOnto(s, q).distance <= radius) ++expected;
    }
    EXPECT_EQ(static_cast<int>(hits.size()), expected);
  }
}

TEST(SegmentRTreeTest, HeightGrowsWithNetwork) {
  auto small = test::MakeGrid(2, 2);
  auto large = test::MakeGrid(20, 20);
  ASSERT_NE(small, nullptr);
  ASSERT_NE(large, nullptr);
  SegmentRTree t_small(*small, 4);
  SegmentRTree t_large(*large, 4);
  EXPECT_GE(t_large.height(), t_small.height());
  EXPECT_GE(t_large.height(), 3);
}

TEST(SegmentRTreeTest, ZeroKReturnsEmpty) {
  auto g = test::MakeGrid(2, 2);
  ASSERT_NE(g, nullptr);
  SegmentRTree tree(*g);
  EXPECT_TRUE(tree.KNearest({0, 0}, 0).empty());
}

}  // namespace
}  // namespace trmma
