#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "gen/presets.h"
#include "nn/kernel.h"
#include "node2vec/node2vec.h"
#include "obs/json_parse.h"
#include "obs/train_log.h"
#include "tests/test_util.h"

namespace trmma {
namespace {

double Cosine(const nn::Matrix& table, int a, int b) {
  double dot = 0;
  double na = 0;
  double nb = 0;
  for (int c = 0; c < table.cols(); ++c) {
    dot += table.at(a, c) * table.at(b, c);
    na += table.at(a, c) * table.at(a, c);
    nb += table.at(b, c) * table.at(b, c);
  }
  if (na == 0 || nb == 0) return 0;
  return dot / std::sqrt(na * nb);
}

// ------------------------------------------- reference skip-gram loop

double ReferenceSigmoid(double x) {
  if (x >= 0) return 1.0 / (1.0 + std::exp(-x));
  const double e = std::exp(x);
  return e / (1.0 + e);
}

/// TrainNode2Vec as a loop over one target at a time: each negative is
/// drawn just before its own dot product and update. The library takes all
/// of a pair's dot products at once and updates on vectors; it must give
/// these bits. Appends each epoch's mean loss to `losses` when the train
/// logger is enabled, as the library logs it.
nn::Matrix ReferenceNode2Vec(const RoadNetwork& g, const Node2VecConfig& config,
                             Rng& rng, std::vector<double>* losses) {
  const int n = g.num_segments();
  const int d = config.dim;
  std::vector<std::vector<int>> nbrs(n);
  for (SegmentId e = 0; e < n; ++e) {
    for (SegmentId s : g.OutSegments(g.segment(e).to)) {
      if (s != e) nbrs[e].push_back(s);
    }
    for (SegmentId s : g.InSegments(g.segment(e).from)) {
      if (s != e) nbrs[e].push_back(s);
    }
    std::sort(nbrs[e].begin(), nbrs[e].end());
    nbrs[e].erase(std::unique(nbrs[e].begin(), nbrs[e].end()), nbrs[e].end());
  }

  nn::Matrix center(n, d);
  nn::Matrix context(n, d);
  const double init = 0.5 / d;
  for (int i = 0; i < center.size(); ++i) {
    center.data()[i] = rng.Uniform(-init, init);
  }

  std::vector<int> walk;
  std::vector<double> weights;
  auto random_walk = [&](int start) {
    walk.clear();
    walk.push_back(start);
    while (static_cast<int>(walk.size()) < config.walk_length) {
      const int cur = walk.back();
      const auto& cands = nbrs[cur];
      if (cands.empty()) break;
      if (walk.size() == 1) {
        walk.push_back(cands[rng.UniformInt(cands.size())]);
        continue;
      }
      const int prev = walk[walk.size() - 2];
      weights.resize(cands.size());
      for (size_t i = 0; i < cands.size(); ++i) {
        const int x = cands[i];
        if (x == prev) {
          weights[i] = 1.0 / config.p;
        } else if (std::binary_search(nbrs[prev].begin(), nbrs[prev].end(),
                                      x)) {
          weights[i] = 1.0;
        } else {
          weights[i] = 1.0 / config.q;
        }
      }
      walk.push_back(cands[rng.Categorical(weights)]);
    }
  };

  const bool log_training = obs::TrainLogger::Global().Enabled();
  double epoch_loss = 0.0;
  int64_t epoch_pairs = 0;
  std::vector<double> grad_center(d);
  auto train_pair = [&](int c, int o, double lr) {
    std::fill(grad_center.begin(), grad_center.end(), 0.0);
    double* vc = center.row(c);
    for (int k = 0; k <= config.negatives; ++k) {
      const int target = k == 0 ? o : static_cast<int>(rng.UniformInt(n));
      const double label = k == 0 ? 1.0 : 0.0;
      if (k > 0 && target == o) continue;
      double* uo = context.row(target);
      double dot = 0.0;
      for (int j = 0; j < d; ++j) dot += vc[j] * uo[j];
      const double sig = ReferenceSigmoid(dot);
      const double err = sig - label;
      if (log_training) {
        const double p = label > 0.5 ? sig : 1.0 - sig;
        epoch_loss += -std::log(std::max(p, 1e-12));
      }
      for (int j = 0; j < d; ++j) {
        grad_center[j] += err * uo[j];
        uo[j] -= lr * err * vc[j];
      }
    }
    for (int j = 0; j < d; ++j) vc[j] -= lr * grad_center[j];
    ++epoch_pairs;
  };

  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) order[i] = i;
  const int64_t total_steps = static_cast<int64_t>(config.epochs) *
                              config.walks_per_node * n;
  int64_t step = 0;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    epoch_loss = 0.0;
    epoch_pairs = 0;
    for (int w = 0; w < config.walks_per_node; ++w) {
      rng.Shuffle(order);
      for (int start : order) {
        const double progress = static_cast<double>(step++) / total_steps;
        const double lr = config.lr * std::max(1.0 - progress, 0.05);
        random_walk(start);
        const int len = static_cast<int>(walk.size());
        for (int i = 0; i < len; ++i) {
          const int lo = std::max(0, i - config.window);
          const int hi = std::min(len - 1, i + config.window);
          for (int j = lo; j <= hi; ++j) {
            if (j != i) train_pair(walk[i], walk[j], lr);
          }
        }
      }
    }
    if (log_training) {
      losses->push_back(epoch_pairs > 0
                            ? epoch_loss / static_cast<double>(epoch_pairs)
                            : 0.0);
    }
  }
  return center;
}

using TrainFn = nn::Matrix (*)(const RoadNetwork&, const Node2VecConfig&,
                               Rng&);

struct Path {
  const char* name;
  TrainFn train;
};

/// The entry points this host can run: the portable one always, the AVX2
/// one where the CPU has it.
std::vector<Path> Paths() {
  std::vector<Path> paths = {
      {"portable", &node2vec_internal::TrainNode2VecPortable}};
  if (nn::kernel_internal::HasAvx2()) {
    paths.push_back({"avx2", &node2vec_internal::TrainNode2VecAvx2});
  }
  return paths;
}

/// Trains the reference and then each of `paths` from the same seed, and
/// requires each path to give the reference's table bits and next draw;
/// with `log` on, also its logged loss bits for every epoch.
void ExpectMatchesReference(const std::vector<Path>& paths,
                            const RoadNetwork& g, const Node2VecConfig& config,
                            uint64_t seed, bool log) {
  const std::string file = ::testing::TempDir() + "trmma_node2vec_loss.jsonl";
  obs::TrainLogger& logger = obs::TrainLogger::Global();
  // The reference adds up its loss only while the logger is enabled.
  if (log) logger.SetFile(file);
  std::vector<double> want_losses;
  Rng ref_rng(seed);
  const nn::Matrix want = ReferenceNode2Vec(g, config, ref_rng, &want_losses);
  const uint64_t want_next = ref_rng.Next();
  if (log) logger.SetFile("");

  // One call per path, so a failed assertion on one path still checks the
  // next.
  auto check = [&](const Path& path) {
    SCOPED_TRACE(path.name);
    if (log) logger.SetFile(file);
    Rng rng(seed);
    const nn::Matrix got = path.train(g, config, rng);
    std::vector<double> got_losses;
    if (log) {
      logger.SetFile("");
      std::ifstream in(file);
      for (std::string line; std::getline(in, line);) {
        auto row = obs::ParseJson(line);
        ASSERT_TRUE(row.ok()) << line;
        if (row->Get("model").AsString() != "node2vec") continue;
        got_losses.push_back(row->Get("loss").AsNumber());
      }
      std::remove(file.c_str());
    }

    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    for (int i = 0; i < got.size(); ++i) {
      ASSERT_EQ(std::bit_cast<uint64_t>(got.data()[i]),
                std::bit_cast<uint64_t>(want.data()[i]))
          << "row " << i / got.cols() << " col " << i % got.cols() << ": "
          << got.data()[i] << " vs " << want.data()[i];
    }
    EXPECT_EQ(rng.Next(), want_next);
    if (!log) return;
    ASSERT_EQ(got_losses.size(), static_cast<size_t>(config.epochs));
    ASSERT_EQ(want_losses.size(), got_losses.size());
    for (size_t e = 0; e < got_losses.size(); ++e) {
      EXPECT_GT(got_losses[e], 0.0);
      EXPECT_EQ(std::bit_cast<uint64_t>(got_losses[e]),
                std::bit_cast<uint64_t>(want_losses[e]))
          << "epoch " << e << ": " << got_losses[e] << " vs "
          << want_losses[e];
    }
  };
  for (const Path& path : paths) check(path);
}

/// A 3x3 grid plus one one-way segment between two nodes nothing else
/// touches: that segment has no line-graph neighbours, so its walks stop at
/// length 1 and it keeps its random initial vector.
std::unique_ptr<RoadNetwork> GridWithIsolatedSegment() {
  auto g = std::make_unique<RoadNetwork>();
  const LocalProjection proj(LatLng{31.0, 121.0});
  for (int gy = 0; gy < 3; ++gy) {
    for (int gx = 0; gx < 3; ++gx) {
      g->AddNode(proj.ToLatLng(Vec2{gx * 100.0, gy * 100.0}));
    }
  }
  for (int gy = 0; gy < 3; ++gy) {
    for (int gx = 0; gx < 3; ++gx) {
      const int id = gy * 3 + gx;
      if (gx + 1 < 3) {
        (void)g->AddSegment(id, id + 1, 10.0);
        (void)g->AddSegment(id + 1, id, 10.0);
      }
      if (gy + 1 < 3) {
        (void)g->AddSegment(id, id + 3, 10.0);
        (void)g->AddSegment(id + 3, id, 10.0);
      }
    }
  }
  const NodeId a = g->AddNode(proj.ToLatLng(Vec2{1000.0, 1000.0}));
  const NodeId b = g->AddNode(proj.ToLatLng(Vec2{1100.0, 1000.0}));
  (void)g->AddSegment(a, b, 10.0);
  if (!g->Finalize().ok()) return nullptr;
  return g;
}

// The skip-gram step, on each entry point this host can run, must give the
// reference loop's bits: the table, the Rng state after training and the
// logged loss. The city presets' networks run at their stack config with
// few walks; the small networks force the rarer paths: repeated negatives
// (25 segments, so a pair's 4 or 8 negatives often repeat), more targets
// than one dot-product loop takes (8 and 12 negatives, taken one at a
// time), a dim with a scalar tail, no negatives, and a segment with no
// line-graph neighbours.
TEST(Node2VecTest, MatchesReferenceLoopBitForBit) {
  const std::vector<Path> paths = Paths();
  for (const std::string& city : CityNames()) {
    SCOPED_TRACE(city);
    auto preset = GetCityPreset(city);
    ASSERT_TRUE(preset.ok());
    Rng net_rng(preset->seed);
    auto network = GenerateNetwork(preset->net, net_rng);
    ASSERT_TRUE(network.ok()) << network.status().ToString();
    Node2VecConfig config;
    config.epochs = city == "PT" ? 2 : 1;
    config.walks_per_node = city == "XA" ? 2 : 1;
    ExpectMatchesReference(paths, **network, config, 77,
                           /*log=*/city == "PT");
  }

  auto grid = GridWithIsolatedSegment();
  ASSERT_NE(grid, nullptr);
  struct Case {
    const char* name;
    int dim;
    int negatives;
  };
  for (const Case& c : {Case{"repeated negatives in one loop", 8, 4},
                        Case{"repeated negatives, one at a time", 8, 8},
                        Case{"more targets than one loop", 5, 12},
                        Case{"dim with a scalar tail", 13, 4},
                        Case{"dim below one vector", 3, 4},
                        Case{"no negatives", 7, 0}}) {
    SCOPED_TRACE(c.name);
    Node2VecConfig config;
    config.dim = c.dim;
    config.negatives = c.negatives;
    config.walks_per_node = 3;
    for (bool log : {false, true}) {
      ExpectMatchesReference(paths, *grid, config, 5, log);
    }
  }
}

TEST(Node2VecTest, OutputShape) {
  auto g = test::MakeGrid(5, 5, 100.0);
  ASSERT_NE(g, nullptr);
  Node2VecConfig config;
  config.dim = 16;
  config.epochs = 1;
  config.walks_per_node = 2;
  Rng rng(1);
  nn::Matrix table = TrainNode2Vec(*g, config, rng);
  EXPECT_EQ(table.rows(), g->num_segments());
  EXPECT_EQ(table.cols(), 16);
}

TEST(Node2VecTest, NeighborsMoreSimilarThanDistantSegments) {
  auto g = test::MakeGrid(8, 8, 100.0);
  ASSERT_NE(g, nullptr);
  Node2VecConfig config;
  config.dim = 24;
  config.epochs = 3;
  config.walks_per_node = 6;
  Rng rng(2);
  nn::Matrix table = TrainNode2Vec(*g, config, rng);

  // Average similarity of connected pairs vs random far pairs.
  Rng pick(3);
  double near_sim = 0;
  int near_count = 0;
  for (SegmentId e = 0; e < g->num_segments() && near_count < 200; ++e) {
    for (SegmentId n : g->NextSegments(e)) {
      if (n == e) continue;
      near_sim += Cosine(table, e, n);
      ++near_count;
      break;
    }
  }
  double far_sim = 0;
  int far_count = 0;
  for (int i = 0; i < 200; ++i) {
    SegmentId a = static_cast<SegmentId>(pick.UniformInt(g->num_segments()));
    SegmentId b = static_cast<SegmentId>(pick.UniformInt(g->num_segments()));
    const Vec2 pa = g->PointOnSegment(a, 0.5);
    const Vec2 pb = g->PointOnSegment(b, 0.5);
    if ((pa - pb).Norm() < 400.0) continue;  // keep genuinely far pairs
    far_sim += Cosine(table, a, b);
    ++far_count;
  }
  ASSERT_GT(near_count, 50);
  ASSERT_GT(far_count, 50);
  EXPECT_GT(near_sim / near_count, far_sim / far_count + 0.1);
}

TEST(Node2VecTest, DeterministicForSeed) {
  auto g = test::MakeGrid(4, 4, 100.0);
  ASSERT_NE(g, nullptr);
  Node2VecConfig config;
  config.dim = 8;
  config.epochs = 1;
  Rng rng1(9);
  Rng rng2(9);
  nn::Matrix a = TrainNode2Vec(*g, config, rng1);
  nn::Matrix b = TrainNode2Vec(*g, config, rng2);
  for (int i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.data()[i], b.data()[i]);
  }
}

}  // namespace
}  // namespace trmma
