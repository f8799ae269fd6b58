#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <future>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "eval/experiment.h"
#include "obs/metrics.h"
#include "robust/fault_injection.h"
#include "robust/pipeline.h"
#include "serve/session.h"
#include "tests/test_util.h"

namespace trmma {
namespace {

/// Serving-engine chaos harness (ISSUE acceptance): offered load ramps past
/// capacity while faults fire, and the engine must shed rather than queue
/// without bound, fire deadlines, trip and recover its breakers, and keep
/// the four-way outcome accounting exact — no silent drops, no aborts.
class ServeChaosFixture : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new Dataset(test::MakeTinyDataset("XA", 120));
    stack_ = new ExperimentStack();
    stack_->dataset = dataset_;
    stack_->index = std::make_unique<SegmentRTree>(*dataset_->network);
    stack_->stats = std::make_unique<TransitionStats>(*dataset_->network);
    for (int idx : dataset_->train_idx) {
      stack_->stats->AddRoute(dataset_->samples[idx].route);
    }
    stack_->engine = std::make_unique<ShortestPathEngine>(*dataset_->network);
    stack_->planner =
        std::make_unique<DaRoutePlanner>(*dataset_->network, *stack_->stats);

    MmaConfig mma_config;
    mma_config.d0 = 16;
    mma_config.d1 = 32;
    mma_config.d2 = 16;
    mma_config.d3 = 32;
    mma_config.trans_ffn = 32;
    stack_->mma = std::make_unique<MmaMatcher>(*dataset_->network,
                                               *stack_->index, mma_config);
    Rng mma_rng(1);
    for (int e = 0; e < 2; ++e) stack_->mma->TrainEpoch(*dataset_, mma_rng);

    TrmmaConfig trmma_config;
    trmma_config.dh = 16;
    trmma_config.trans_ffn = 32;
    stack_->trmma = std::make_unique<TrmmaRecovery>(
        *dataset_->network, stack_->mma.get(), stack_->planner.get(),
        stack_->engine.get(), trmma_config);
    Rng trmma_rng(2);
    stack_->trmma->TrainEpoch(*dataset_, trmma_rng);
  }
  static void TearDownTestSuite() {
    delete stack_;
    delete dataset_;
  }

  static std::unique_ptr<serve::ServingSession> MakeSession(
      serve::ServeConfig serve_config) {
    serve::SessionConfig config;
    config.serve = serve_config;
    config.epsilon = dataset_->epsilon_s;
    auto session = serve::ServingSession::Create(*stack_, config);
    EXPECT_TRUE(session.ok()) << session.status().ToString();
    return session.ok() ? std::move(session).value() : nullptr;
  }

  static serve::ServeRequest SampleRequest(int i) {
    const TrajectorySample& sample =
        dataset_->samples[dataset_->test_idx[
            static_cast<size_t>(i) % dataset_->test_idx.size()]];
    serve::ServeRequest req;
    if (i % 2 == 0) {
      req.kind = serve::RequestKind::kMatch;
      req.traj = sample.raw;
    } else {
      req.kind = serve::RequestKind::kRecover;
      req.traj = sample.sparse;
      req.epsilon = dataset_->epsilon_s;
    }
    return req;
  }

  /// All-NaN input: the sanitizer discards every point, so recovery fails
  /// deterministically — the poison that trips the recover breaker.
  static serve::ServeRequest PoisonRequest() {
    serve::ServeRequest req;
    req.kind = serve::RequestKind::kRecover;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (int i = 0; i < 5; ++i) {
      GpsPoint p;
      p.pos = LatLng{nan, nan};
      p.t = 15.0 * i;
      req.traj.points.push_back(p);
    }
    return req;
  }

  static Dataset* dataset_;
  static ExperimentStack* stack_;
};

Dataset* ServeChaosFixture::dataset_ = nullptr;
ExperimentStack* ServeChaosFixture::stack_ = nullptr;

TEST_F(ServeChaosFixture, OverloadRampShedsInsteadOfQueueingUnbounded) {
  serve::ServeConfig config;
  config.threads = 2;
  config.queue_cap = 8;
  config.deadline_ms = 500.0;
  config.max_retries = 0;
  auto session = MakeSession(config);
  ASSERT_NE(session, nullptr);

  // Ramp: each burst submits back-to-back (far past capacity in the last
  // leg), then waits for every future before the next.
  int64_t total = 0;
  for (int burst_size : {8, 32, 96}) {
    std::vector<std::future<serve::ServeResponse>> futures;
    futures.reserve(static_cast<size_t>(burst_size));
    for (int i = 0; i < burst_size; ++i) {
      futures.push_back(session->Submit(SampleRequest(i)));
    }
    for (auto& f : futures) {
      const serve::ServeResponse resp = f.get();
      if (resp.outcome == serve::Outcome::kShed) {
        EXPECT_GT(resp.retry_after_ms, 0.0);
      }
    }
    total += burst_size;
    const serve::ServeStats s = session->stats();
    EXPECT_EQ(s.submitted, total) << "burst " << burst_size;
    EXPECT_TRUE(s.Consistent()) << "burst " << burst_size;
  }

  session->Stop();
  const serve::ServeStats stats = session->stats();
  EXPECT_TRUE(stats.Consistent());
  EXPECT_GT(stats.shed, 0) << "a 96-deep burst must overflow an 8-slot queue";
  EXPECT_LE(stats.peak_queue_depth, config.queue_cap)
      << "the queue must never grow past its cap";
  EXPECT_GT(stats.success, 0) << "overload must not starve all requests";
  EXPECT_EQ(session->engine().queue_depth(), 0);
}

TEST_F(ServeChaosFixture, TightDeadlinesFireUnderBacklog) {
  serve::ServeConfig config;
  config.threads = 1;
  config.queue_cap = 64;
  config.deadline_ms = 2.0;
  config.max_retries = 0;
  auto session = MakeSession(config);
  ASSERT_NE(session, nullptr);

  std::vector<std::future<serve::ServeResponse>> futures;
  for (int i = 0; i < 40; ++i) {
    futures.push_back(session->Submit(SampleRequest(i)));
  }
  for (auto& f : futures) (void)f.get();
  session->Stop();

  const serve::ServeStats stats = session->stats();
  EXPECT_TRUE(stats.Consistent());
  // With a 2ms budget and one worker, the backlog expires in the queue.
  EXPECT_GT(stats.timeout, 0);
  EXPECT_EQ(stats.timeout, stats.deadline_expired);
}

TEST_F(ServeChaosFixture, PoisonTripsTheBreakerAndProbesRecoverIt) {
  serve::ServeConfig config;
  config.threads = 1;
  config.deadline_ms = 0.0;
  config.max_retries = 0;
  config.breaker.window = 8;
  config.breaker.min_samples = 4;
  config.breaker.trip_ratio = 0.5;
  config.breaker.cooldown_ms = 150.0;
  config.breaker.half_open_probes = 2;
  auto session = MakeSession(config);
  ASSERT_NE(session, nullptr);

  // A request the healthy stack can actually serve, for probing later.
  int good = -1;
  for (int i = 1; i < 20; i += 2) {
    if (session->SubmitAndWait(SampleRequest(i)).status.ok()) {
      good = i;
      break;
    }
  }
  ASSERT_NE(good, -1) << "no recoverable sample in the test split";

  // Poison until the recover breaker trips.
  int poisons = 0;
  while (session->engine().breaker_state(serve::RequestKind::kRecover) !=
             serve::BreakerState::kOpen &&
         poisons < 12) {
    const serve::ServeResponse resp = session->SubmitAndWait(PoisonRequest());
    EXPECT_EQ(resp.outcome, serve::Outcome::kDegraded);
    EXPECT_FALSE(resp.status.ok());
    ++poisons;
  }
  ASSERT_EQ(session->engine().breaker_state(serve::RequestKind::kRecover),
            serve::BreakerState::kOpen)
      << "deterministic poison failures must trip the breaker";

  // Open breaker sheds before execution, with a backoff hint.
  const serve::ServeResponse shed = session->SubmitAndWait(PoisonRequest());
  EXPECT_EQ(shed.outcome, serve::Outcome::kShed);
  EXPECT_EQ(shed.shed_reason, "breaker_open");
  EXPECT_GT(shed.retry_after_ms, 0.0);

  // The match class is isolated: its breaker never saw the poison.
  EXPECT_EQ(session->engine().breaker_state(serve::RequestKind::kMatch),
            serve::BreakerState::kClosed);

  // After the cooldown, half-open probes carry healthy traffic and the
  // breaker closes again.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  for (int i = 0; i < 2; ++i) {
    const serve::ServeResponse probe =
        session->SubmitAndWait(SampleRequest(good));
    EXPECT_TRUE(probe.status.ok()) << probe.status.ToString();
  }
  EXPECT_EQ(session->engine().breaker_state(serve::RequestKind::kRecover),
            serve::BreakerState::kClosed);
  EXPECT_TRUE(session->SubmitAndWait(SampleRequest(good)).status.ok());

  session->Stop();
  EXPECT_TRUE(session->stats().Consistent());
}

TEST_F(ServeChaosFixture, FaultInjectedRampStaysAccountable) {
  FaultInjectionConfig faults;
  faults.coord_spike_prob = 0.03;
  faults.coord_nan_prob = 0.02;
  faults.ts_shuffle_prob = 0.05;
  faults.drop_point_prob = 0.02;
  faults.seed = 9;
  FaultInjector injector(faults);

  serve::ServeConfig config;
  config.threads = 2;
  // This test is about fault accountability, not shedding: the queue is
  // sized to absorb the whole burst so every request actually executes.
  config.queue_cap = 128;
  config.deadline_ms = 2000.0;
  config.max_retries = 1;
  config.faults = &injector;
  auto session = MakeSession(config);
  ASSERT_NE(session, nullptr);

  const bool metrics_were_on = obs::MetricsEnabled();
  if (!metrics_were_on) obs::SetTraceMode(obs::TraceMode::kMetrics);

  std::vector<std::future<serve::ServeResponse>> futures;
  for (int i = 0; i < 96; ++i) {
    // Recover-only: corrupted inputs flow through the sanitizer, which is
    // the contract for damaged data (match serves clean traffic elsewhere).
    futures.push_back(session->Submit(SampleRequest(2 * i + 1)));
  }
  int64_t delivered = 0;
  for (auto& f : futures) {
    const serve::ServeResponse resp = f.get();
    if (resp.outcome == serve::Outcome::kSuccess ||
        resp.outcome == serve::Outcome::kDegraded) {
      ++delivered;
    }
  }
  session->Stop();

  const serve::ServeStats stats = session->stats();
  EXPECT_TRUE(stats.Consistent()) << "faults must never lose a request";
  EXPECT_EQ(stats.submitted, 96);
  EXPECT_GT(delivered, 48) << "most corrupted requests still get answers";
  EXPECT_LE(stats.peak_queue_depth, config.queue_cap);

  // The serve counters flowed into the global registry (the /metrics
  // exporter reads the same registry, so this is the observable surface).
  int64_t submitted_metric = 0;
  EXPECT_TRUE(obs::MetricRegistry::Global().SumCountersByName(
      "serve.requests.total", &submitted_metric));
  EXPECT_GE(submitted_metric, 96);
  int64_t outcomes_metric = 0;
  EXPECT_TRUE(obs::MetricRegistry::Global().SumCountersByName(
      "serve.outcome.total", &outcomes_metric));
  EXPECT_GE(outcomes_metric, 96);
  if (!metrics_were_on) obs::SetTraceMode(obs::TraceMode::kOff);
}

// Served answers equal offline answers: every worker is rebuilt from the
// stack through a weight save/load, and must still answer exactly as the
// stack itself does. With no deadline and no faults the engine has no
// reason to touch an answer, so match sections and recovered points must
// agree bit for bit, and a recovery is degraded only when it is offline.
TEST_F(ServeChaosFixture, ServedAnswersEqualOfflineAnswers) {
  FaultInjector no_faults{FaultInjectionConfig{}};
  serve::ServeConfig config;
  config.threads = 2;
  config.queue_cap = 2 * static_cast<int>(dataset_->test_idx.size());
  config.deadline_ms = 0.0;
  config.faults = &no_faults;
  auto session = MakeSession(config);
  ASSERT_NE(session, nullptr);

  std::vector<std::future<serve::ServeResponse>> matches;
  std::vector<std::future<serve::ServeResponse>> recovers;
  for (int idx : dataset_->test_idx) {
    const TrajectorySample& sample = dataset_->samples[idx];
    serve::ServeRequest match;
    match.kind = serve::RequestKind::kMatch;
    match.traj = sample.raw;
    matches.push_back(session->Submit(std::move(match)));
    serve::ServeRequest recover;
    recover.kind = serve::RequestKind::kRecover;
    recover.traj = sample.sparse;
    recover.epsilon = dataset_->epsilon_s;
    recovers.push_back(session->Submit(std::move(recover)));
  }

  PipelineConfig pipeline_config;
  pipeline_config.sanitize = session->config().sanitize;
  pipeline_config.epsilon = dataset_->epsilon_s;
  RobustRecoveryPipeline pipeline(stack_->trmma.get(), pipeline_config);
  for (size_t i = 0; i < dataset_->test_idx.size(); ++i) {
    SCOPED_TRACE("test sample " + std::to_string(dataset_->test_idx[i]));
    const TrajectorySample& sample = dataset_->samples[dataset_->test_idx[i]];

    const serve::ServeResponse served_match = matches[i].get();
    ASSERT_TRUE(served_match.status.ok())
        << served_match.status.ToString();
    EXPECT_EQ(served_match.outcome, serve::Outcome::kSuccess);
    const std::vector<SegmentId> segments =
        stack_->mma->MatchPoints(sample.raw);
    EXPECT_EQ(served_match.match.segments, segments);
    const std::vector<RouteSection> sections = StitchRouteSections(
        *dataset_->network, *stack_->planner, *stack_->engine, segments);
    ASSERT_EQ(served_match.match.sections.size(), sections.size());
    for (size_t s = 0; s < sections.size(); ++s) {
      EXPECT_EQ(served_match.match.sections[s].route, sections[s].route);
      EXPECT_EQ(served_match.match.sections[s].first_point,
                sections[s].first_point);
      EXPECT_EQ(served_match.match.sections[s].last_point,
                sections[s].last_point);
    }

    const serve::ServeResponse served_recover = recovers[i].get();
    const PipelineResult offline = pipeline.RunSanitized(sample.sparse);
    EXPECT_EQ(served_recover.status.ok(), !offline.failed())
        << served_recover.status.ToString();
    EXPECT_FALSE(served_recover.deadline_degraded);
    EXPECT_EQ(served_recover.pipeline_degraded,
              offline.outcome != RecoveryOutcome::kOk);
    ASSERT_EQ(served_recover.recovered.size(), offline.recovered.size());
    for (size_t p = 0; p < offline.recovered.size(); ++p) {
      const MatchedPoint& got = served_recover.recovered[p];
      const MatchedPoint& want = offline.recovered[p];
      EXPECT_EQ(got.segment, want.segment) << "point " << p;
      EXPECT_EQ(std::bit_cast<uint64_t>(got.ratio),
                std::bit_cast<uint64_t>(want.ratio))
          << "point " << p;
      EXPECT_EQ(std::bit_cast<uint64_t>(got.t), std::bit_cast<uint64_t>(want.t))
          << "point " << p;
    }
  }
  session->Stop();
  const serve::ServeStats stats = session->stats();
  EXPECT_TRUE(stats.Consistent());
  EXPECT_EQ(stats.retries, 0);
}

}  // namespace
}  // namespace trmma
