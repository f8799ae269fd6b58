#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>

#include "eval/metrics.h"
#include "mm/hmm.h"
#include "mm/mma.h"
#include "mm/nearest.h"
#include "recovery/linear.h"
#include "recovery/trmma.h"
#include "tests/test_util.h"

namespace trmma {
namespace {

class TrmmaFixture : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new Dataset(test::MakeTinyDataset("XA", 320));
    index_ = new SegmentRTree(*dataset_->network);
    ubodt_ = new Ubodt(*dataset_->network, 3000.0);
    stats_ = new TransitionStats(*dataset_->network);
    for (int idx : dataset_->train_idx) {
      stats_->AddRoute(dataset_->samples[idx].route);
    }
    planner_ = new DaRoutePlanner(*dataset_->network, *stats_);
    engine_ = new ShortestPathEngine(*dataset_->network);

    MmaConfig mma_config;
    mma_config.d0 = 16;
    mma_config.d1 = 32;
    mma_config.d2 = 16;
    mma_config.d3 = 32;
    mma_config.trans_ffn = 32;
    mma_ = new MmaMatcher(*dataset_->network, *index_, mma_config);
    Rng rng(1);
    for (int e = 0; e < 4; ++e) mma_->TrainEpoch(*dataset_, rng);
  }
  static void TearDownTestSuite() {
    delete mma_;
    delete engine_;
    delete planner_;
    delete stats_;
    delete ubodt_;
    delete index_;
    delete dataset_;
  }

  static TrmmaConfig SmallConfig() {
    TrmmaConfig config;
    config.dh = 16;
    config.trans_ffn = 32;
    return config;
  }

  static double Accuracy(RecoveryMethod& method, int max_samples = 25) {
    double acc = 0;
    int count = 0;
    for (int idx : dataset_->test_idx) {
      if (count >= max_samples) break;
      const auto& sample = dataset_->samples[idx];
      auto rec = method.Recover(sample.sparse, dataset_->epsilon_s);
      acc += PointwiseAccuracy(rec, sample.truth);
      ++count;
    }
    return acc / count;
  }

  static Dataset* dataset_;
  static SegmentRTree* index_;
  static Ubodt* ubodt_;
  static TransitionStats* stats_;
  static DaRoutePlanner* planner_;
  static ShortestPathEngine* engine_;
  static MmaMatcher* mma_;
};

Dataset* TrmmaFixture::dataset_ = nullptr;
SegmentRTree* TrmmaFixture::index_ = nullptr;
Ubodt* TrmmaFixture::ubodt_ = nullptr;
TransitionStats* TrmmaFixture::stats_ = nullptr;
DaRoutePlanner* TrmmaFixture::planner_ = nullptr;
ShortestPathEngine* TrmmaFixture::engine_ = nullptr;
MmaMatcher* TrmmaFixture::mma_ = nullptr;

TEST_F(TrmmaFixture, RecoveredTrajectoryHasTruthLength) {
  TrmmaRecovery trmma(*dataset_->network, mma_, planner_, engine_,
                      SmallConfig());
  Rng rng(2);
  trmma.TrainEpoch(*dataset_, rng);
  for (int t = 0; t < 10; ++t) {
    const auto& sample = dataset_->samples[dataset_->test_idx[t]];
    auto rec = trmma.Recover(sample.sparse, dataset_->epsilon_s);
    EXPECT_EQ(rec.size(), sample.truth.size());
  }
}

TEST_F(TrmmaFixture, TimestampsOnEpsilonGrid) {
  TrmmaRecovery trmma(*dataset_->network, mma_, planner_, engine_,
                      SmallConfig());
  Rng rng(3);
  trmma.TrainEpoch(*dataset_, rng);
  const auto& sample = dataset_->samples[dataset_->test_idx[0]];
  auto rec = trmma.Recover(sample.sparse, dataset_->epsilon_s);
  for (size_t i = 1; i < rec.size(); ++i) {
    EXPECT_NEAR(rec[i].t - rec[i - 1].t, dataset_->epsilon_s, 1e-6);
  }
}

TEST_F(TrmmaFixture, TrainingReducesLoss) {
  TrmmaRecovery trmma(*dataset_->network, mma_, planner_, engine_,
                      SmallConfig());
  Rng rng(4);
  const double first = trmma.TrainEpoch(*dataset_, rng);
  double last = first;
  for (int e = 0; e < 4; ++e) last = trmma.TrainEpoch(*dataset_, rng);
  EXPECT_LT(last, first * 0.9);
}

TEST_F(TrmmaFixture, BeatsNearestPlusLinear) {
  TrmmaRecovery trmma(*dataset_->network, mma_, planner_, engine_,
                      SmallConfig());
  Rng rng(5);
  for (int e = 0; e < 8; ++e) trmma.TrainEpoch(*dataset_, rng);
  NearestMatcher nearest(*dataset_->network, *index_);
  LinearRecovery nearest_linear(*dataset_->network, &nearest, planner_,
                                engine_, "Nearest+linear");
  EXPECT_GT(Accuracy(trmma), Accuracy(nearest_linear));
}

TEST_F(TrmmaFixture, TeacherForcedDiagnosticsImprove) {
  TrmmaRecovery trmma(*dataset_->network, mma_, planner_, engine_,
                      SmallConfig());
  std::vector<int> probe(dataset_->test_idx.begin(),
                         dataset_->test_idx.begin() + 20);
  auto before = trmma.EvaluateTeacherForced(*dataset_, probe);
  Rng rng(6);
  for (int e = 0; e < 5; ++e) trmma.TrainEpoch(*dataset_, rng);
  auto after = trmma.EvaluateTeacherForced(*dataset_, probe);
  EXPECT_GT(after.cls_accuracy, before.cls_accuracy - 0.05);
  EXPECT_GT(after.cls_accuracy, 0.5);
  EXPECT_LT(after.ratio_mae, 0.35);
}

TEST_F(TrmmaFixture, SegmentsStayOnRouteOrder) {
  TrmmaRecovery trmma(*dataset_->network, mma_, planner_, engine_,
                      SmallConfig());
  Rng rng(7);
  trmma.TrainEpoch(*dataset_, rng);
  const auto& sample = dataset_->samples[dataset_->test_idx[2]];
  auto rec = trmma.Recover(sample.sparse, dataset_->epsilon_s);
  // Ratios and ids valid.
  for (const MatchedPoint& a : rec) {
    EXPECT_GE(a.segment, 0);
    EXPECT_LT(a.segment, dataset_->network->num_segments());
    EXPECT_GE(a.ratio, 0.0);
    EXPECT_LT(a.ratio, 1.0);
  }
}

TEST_F(TrmmaFixture, DualformerAblationRuns) {
  TrmmaConfig config = SmallConfig();
  config.use_dualformer = false;  // TRMMA-DF
  TrmmaRecovery trmma(*dataset_->network, mma_, planner_, engine_, config,
                      "TRMMA-DF");
  Rng rng(8);
  EXPECT_GT(trmma.TrainEpoch(*dataset_, rng), 0.0);
  auto rec = trmma.Recover(dataset_->samples[dataset_->test_idx[0]].sparse,
                           dataset_->epsilon_s);
  EXPECT_FALSE(rec.empty());
}

TEST_F(TrmmaFixture, WorksWithHmmMatcherAblation) {
  HmmMatcher hmm(*dataset_->network, *index_);
  TrmmaRecovery trmma(*dataset_->network, &hmm, planner_, engine_,
                      SmallConfig(), "TRMMA-HMM");
  Rng rng(9);
  trmma.TrainEpoch(*dataset_, rng);
  auto rec = trmma.Recover(dataset_->samples[dataset_->test_idx[0]].sparse,
                           dataset_->epsilon_s);
  EXPECT_EQ(rec.size(),
            dataset_->samples[dataset_->test_idx[0]].truth.size());
}

TEST_F(TrmmaFixture, DeterministicInference) {
  TrmmaRecovery trmma(*dataset_->network, mma_, planner_, engine_,
                      SmallConfig());
  Rng rng(10);
  trmma.TrainEpoch(*dataset_, rng);
  const auto& sparse = dataset_->samples[dataset_->test_idx[0]].sparse;
  auto a = trmma.Recover(sparse, dataset_->epsilon_s);
  auto b = trmma.Recover(sparse, dataset_->epsilon_s);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].segment, b[i].segment);
    EXPECT_DOUBLE_EQ(a[i].ratio, b[i].ratio);
  }
}

TEST_F(TrmmaFixture, FastDecodeMatchesReference) {
  // The tape-free inference path must reproduce the autograd reference
  // bit-for-bit in segments and closely in ratios.
  TrmmaRecovery trmma(*dataset_->network, mma_, planner_, engine_,
                      SmallConfig());
  Rng rng(55);
  for (int e = 0; e < 3; ++e) trmma.TrainEpoch(*dataset_, rng);
  for (int t = 0; t < 8; ++t) {
    const auto& sparse = dataset_->samples[dataset_->test_idx[t]].sparse;
    auto fast = trmma.Recover(sparse, dataset_->epsilon_s);
    auto ref = trmma.RecoverReference(sparse, dataset_->epsilon_s);
    ASSERT_EQ(fast.size(), ref.size());
    for (size_t i = 0; i < fast.size(); ++i) {
      EXPECT_EQ(fast[i].segment, ref[i].segment) << "point " << i;
      EXPECT_NEAR(fast[i].ratio, ref[i].ratio, 1e-9) << "point " << i;
    }
  }
}

::testing::AssertionResult SameBits(const std::vector<double>& a,
                                    const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "sizes " << a.size() << " vs " << b.size();
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<uint64_t>(a[i]) != std::bit_cast<uint64_t>(b[i])) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

// The tape-free DualFormer encoder the fast decode runs must give H with
// the bits of the training encoder on the tape, with the cross attention
// on and off (TRMMA-DF), over every trajectory of the test split.
TEST_F(TrmmaFixture, TapeFreeEncodeMatchesTapeBitForBit) {
  for (bool dualformer : {true, false}) {
    SCOPED_TRACE(dualformer ? "DualFormer" : "TRMMA-DF");
    TrmmaConfig config = SmallConfig();
    config.use_dualformer = dualformer;
    TrmmaRecovery trmma(*dataset_->network, mma_, planner_, engine_, config);
    Rng rng(12);
    trmma.TrainEpoch(*dataset_, rng);
    size_t values = 0;
    for (int idx : dataset_->test_idx) {
      const TrajectorySample& sample = dataset_->samples[idx];
      std::vector<MatchedPoint> anchors;
      for (int si : sample.sparse_indices) anchors.push_back(sample.truth[si]);
      const std::vector<double> fast =
          trmma.RouteEncoding(sample.sparse, anchors, sample.route, false);
      ASSERT_EQ(fast.size(), sample.route.size() * config.dh);
      ASSERT_TRUE(SameBits(
          fast,
          trmma.RouteEncoding(sample.sparse, anchors, sample.route, true)))
          << "sample " << idx;
      values += fast.size();
    }
    EXPECT_GT(values, 10000u);

    // One point on a one-segment route.
    const TrajectorySample& sample = dataset_->samples[dataset_->test_idx[0]];
    Trajectory one;
    one.points.push_back(sample.sparse.points.front());
    const std::vector<MatchedPoint> anchor = {
        sample.truth[sample.sparse_indices.front()]};
    const Route route = {anchor.front().segment};
    EXPECT_TRUE(SameBits(trmma.RouteEncoding(one, anchor, route, false),
                         trmma.RouteEncoding(one, anchor, route, true)));
  }
}

TEST_F(TrmmaFixture, CheckpointRoundTrip) {
  TrmmaRecovery trained(*dataset_->network, mma_, planner_, engine_,
                        SmallConfig());
  Rng rng(77);
  for (int e = 0; e < 2; ++e) trained.TrainEpoch(*dataset_, rng);
  const std::string path = testing::TempDir() + "/trmma_ckpt.bin";
  ASSERT_TRUE(trained.Save(path).ok());

  TrmmaRecovery restored(*dataset_->network, mma_, planner_, engine_,
                         SmallConfig());
  ASSERT_TRUE(restored.Load(path).ok());
  const auto& sparse = dataset_->samples[dataset_->test_idx[0]].sparse;
  auto a = trained.Recover(sparse, dataset_->epsilon_s);
  auto b = restored.Recover(sparse, dataset_->epsilon_s);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].segment, b[i].segment);
    EXPECT_DOUBLE_EQ(a[i].ratio, b[i].ratio);
  }
  std::remove(path.c_str());
}

TEST_F(TrmmaFixture, ObservedPointsPreservedInOutput) {
  TrmmaRecovery trmma(*dataset_->network, mma_, planner_, engine_,
                      SmallConfig());
  Rng rng(11);
  trmma.TrainEpoch(*dataset_, rng);
  const auto& sample = dataset_->samples[dataset_->test_idx[1]];
  auto rec = trmma.Recover(sample.sparse, dataset_->epsilon_s);
  // The timestamps of observed sparse points must appear in the output.
  size_t found = 0;
  for (const GpsPoint& p : sample.sparse.points) {
    for (const MatchedPoint& a : rec) {
      if (std::abs(a.t - p.t) < 1e-6) {
        ++found;
        break;
      }
    }
  }
  EXPECT_EQ(found, sample.sparse.points.size());
}

}  // namespace
}  // namespace trmma
