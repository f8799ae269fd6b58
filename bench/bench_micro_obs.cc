// Micro-benchmarks for the observability layer itself. The headline
// comparison is BM_SpanDisabled vs BM_SpanMetrics vs BM_SpanTrace: with
// TRMMA_TRACE unset a TRMMA_SPAN site must cost about one predicted branch
// (a relaxed atomic load and compare), which is what makes it safe to leave
// in the MMA/TRMMA hot paths.

#include <benchmark/benchmark.h>

#include <mutex>

#include "bench_common.h"
#include "obs/cpu_profiler.h"
#include "obs/flight_recorder.h"
#include "obs/mem_stats.h"
#include "obs/metrics.h"
#include "obs/postmortem.h"
#include "obs/quality.h"
#include "obs/trace.h"
#include "obs/tracked_mutex.h"

namespace trmma {
namespace obs {
namespace {

class ModeGuard {
 public:
  explicit ModeGuard(TraceMode mode) : prev_(CurrentTraceMode()) {
    SetTraceMode(mode);
  }
  ~ModeGuard() { SetTraceMode(prev_); }

 private:
  TraceMode prev_;
};

void BM_SpanDisabled(benchmark::State& state) {
  ModeGuard guard(TraceMode::kOff);
  for (auto _ : state) {
    TRMMA_SPAN("bench.obs.noop");
    benchmark::DoNotOptimize(&state);
  }
}
BENCHMARK(BM_SpanDisabled);

void BM_SpanMetrics(benchmark::State& state) {
  ModeGuard guard(TraceMode::kMetrics);
  for (auto _ : state) {
    TRMMA_SPAN("bench.obs.noop");
    benchmark::DoNotOptimize(&state);
  }
}
BENCHMARK(BM_SpanMetrics);

void BM_SpanTrace(benchmark::State& state) {
  ModeGuard guard(TraceMode::kTrace);
  for (auto _ : state) {
    TRMMA_SPAN("bench.obs.noop");
    benchmark::DoNotOptimize(&state);
  }
}
BENCHMARK(BM_SpanTrace);

void BM_CounterIncrement(benchmark::State& state) {
  ModeGuard guard(TraceMode::kMetrics);
  Counter* counter =
      MetricRegistry::Global().GetCounter("bench.obs.counter");
  for (auto _ : state) {
    counter->Increment();
  }
  benchmark::DoNotOptimize(counter->Value());
}
BENCHMARK(BM_CounterIncrement);

void BM_HistogramObserve(benchmark::State& state) {
  ModeGuard guard(TraceMode::kMetrics);
  Histogram* hist =
      MetricRegistry::Global().GetHistogram("bench.obs.hist.us");
  double v = 0.5;
  for (auto _ : state) {
    hist->Observe(v);
    v += 1.375;
    if (v > 1e6) v = 0.5;
  }
  benchmark::DoNotOptimize(hist->Count());
}
BENCHMARK(BM_HistogramObserve);

// Restores the recorder to a known state around the flight-hook benches.
class FlightGuard {
 public:
  explicit FlightGuard(bool enabled) {
    FlightRecorderConfig config;
    config.enabled = enabled;
    config.path = "";  // retention only, no file
    FlightRecorder::Global().Configure(config);
  }
  ~FlightGuard() {
    FlightRecorder::Global().Configure(FlightRecorderConfig());
    FlightRecorder::Global().ResetForTest();
  }
};

// The acceptance contract for leaving capture hooks in mm/recovery hot
// paths: with the recorder off, ActiveRecord() is one relaxed atomic load
// plus a predicted branch — on the order of a nanosecond or two.
void BM_FlightHookDisabled(benchmark::State& state) {
  FlightGuard guard(false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ActiveRecord());
  }
}
BENCHMARK(BM_FlightHookDisabled);

// Recorder enabled but no request active on this thread (the common state
// for non-request threads): still just the load plus a TLS read.
void BM_FlightHookEnabledIdle(benchmark::State& state) {
  FlightGuard guard(true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ActiveRecord());
  }
}
BENCHMARK(BM_FlightHookEnabledIdle);

// Whole-scope cost when disabled: RequestScope must degrade to a couple of
// branches, since every evaluated trajectory constructs one.
void BM_FlightScopeDisabled(benchmark::State& state) {
  FlightGuard guard(false);
  for (auto _ : state) {
    RequestScope scope("bench");
    benchmark::DoNotOptimize(scope.record());
  }
}
BENCHMARK(BM_FlightScopeDisabled);

// Restores the quality log around the quality-hook benches.
class QualityGuard {
 public:
  explicit QualityGuard(bool enabled) {
    QualityLog::Global().Configure(enabled);
  }
  ~QualityGuard() {
    QualityLog::Global().Configure(false);
    QualityLog::Global().ResetForTest();
  }
};

// The acceptance contract for the drift-observation hooks in the candidate
// search: with quality telemetry off, QualityEnabled() is one relaxed
// atomic load plus a predicted branch — about a nanosecond, same budget as
// the disabled flight-recorder hook.
void BM_QualityHookDisabled(benchmark::State& state) {
  QualityGuard guard(false);
  for (auto _ : state) {
    if (QualityEnabled()) {
      QualityLog::Global().ObserveFeature(kFeatureCandidateCount, 4.0);
    }
    benchmark::DoNotOptimize(&state);
  }
}
BENCHMARK(BM_QualityHookDisabled);

// Enabled-path cost: bucket arithmetic plus one relaxed fetch_add on the
// histogram cell. This runs once per point per feature when telemetry is
// on, so it must stay in the low tens of nanoseconds.
void BM_QualityObserveEnabled(benchmark::State& state) {
  QualityGuard guard(true);
  double v = 0.0;
  for (auto _ : state) {
    QualityLog::Global().ObserveFeature(kFeatureNearestCandidateM, v);
    v += 7.25;
    if (v > 300.0) v = 0.0;
  }
  benchmark::DoNotOptimize(
      QualityLog::Global().DriftCounts(kFeatureNearestCandidateM,
                                       QualityPhase::kServe));
}
BENCHMARK(BM_QualityObserveEnabled);

// Per-request ingestion cost with a representative record: bucketing, the
// calibration pairing loop, and the aggregator map updates. Runs once per
// request (not per point), so a microsecond-scale cost is acceptable.
void BM_QualityIngest(benchmark::State& state) {
  QualityGuard guard(true);
  RequestRecord record;
  record.kind = "mm";
  record.method = "MMA";
  record.city = "PT";
  record.quality = 0.9;
  record.epsilon = 60;
  record.gamma = 0.25;
  for (int i = 0; i < 16; ++i) {
    RecordGpsPoint p;
    p.lng = 0.01 * i;
    p.lat = 0.01 * i;
    p.t = 15.0 * i;
    record.input.push_back(p);
    record.truth_segments.push_back(i % 4);
    std::vector<RecordCandidate> cands;
    for (int c = 0; c < 4; ++c) {
      RecordCandidate cand;
      cand.segment = c;
      cand.distance = 10.0 + 5.0 * c;
      cands.push_back(cand);
    }
    record.candidates.push_back(cands);
    RecordMatchedPoint match;
    match.segment = i % 4;
    match.t = p.t;
    record.matched.push_back(match);
    record.scores.push_back(0.8);
  }
  for (auto _ : state) {
    QualityLog::Global().Ingest(record);
  }
  benchmark::DoNotOptimize(QualityLog::Global().HasData());
}
BENCHMARK(BM_QualityIngest);

// The acceptance contract for adopting TrackedMutex in the registry/logger/
// recorder locks: with observability off it must cost one relaxed load plus
// a predicted branch over the plain std::mutex baseline (≤ 2 ns).
void BM_PlainMutexBaseline(benchmark::State& state) {
  std::mutex mu;
  for (auto _ : state) {
    std::lock_guard<std::mutex> lock(mu);
    benchmark::DoNotOptimize(&mu);
  }
}
BENCHMARK(BM_PlainMutexBaseline);

void BM_TrackedMutexDisabled(benchmark::State& state) {
  ModeGuard guard(TraceMode::kOff);
  static TrackedMutex* mu = new TrackedMutex("bench.obs.mutex");
  for (auto _ : state) {
    std::lock_guard<TrackedMutex> lock(*mu);
    benchmark::DoNotOptimize(mu);
  }
}
BENCHMARK(BM_TrackedMutexDisabled);

// Enabled, uncontended path: try_lock + two clock reads + a histogram
// observe. This is the steady-state cost while metrics are on.
void BM_TrackedMutexEnabled(benchmark::State& state) {
  ModeGuard guard(TraceMode::kMetrics);
  static TrackedMutex* mu = new TrackedMutex("bench.obs.mutex.on");
  for (auto _ : state) {
    std::lock_guard<TrackedMutex> lock(*mu);
    benchmark::DoNotOptimize(mu);
  }
}
BENCHMARK(BM_TrackedMutexEnabled);

// The allocation-tag hook contract: disabled, MemAdd is one relaxed load
// plus a predicted branch (≤ 2 ns), cheap enough to leave in retention and
// build paths unconditionally.
void BM_MemHookDisabled(benchmark::State& state) {
  EnableMemStats(false);
  for (auto _ : state) {
    MemAdd(MemTag::kOther, 64);
    benchmark::DoNotOptimize(&state);
  }
}
BENCHMARK(BM_MemHookDisabled);

void BM_MemHookEnabled(benchmark::State& state) {
  EnableMemStats(true);
  for (auto _ : state) {
    MemAdd(MemTag::kOther, 64);
    benchmark::DoNotOptimize(&state);
  }
  EnableMemStats(false);
  ResetMemStats();
}
BENCHMARK(BM_MemHookEnabled);

// The acceptance contract for the serving engine's per-request in-flight
// hooks: with neither crash handler nor watchdog installed (the default),
// Register is one relaxed load plus a predicted branch (≤ 2 ns), and the
// -1 "not tracked" token makes MarkExecuting/Release single-compare no-ops.
// That is what lets the engine call all three unconditionally per request.
void BM_InflightHookDisabled(benchmark::State& state) {
  InflightRegistry& reg = InflightRegistry::Global();
  reg.SetEnabled(false);
  uint64_t trace_id = 1;
  for (auto _ : state) {
    const int token = reg.Register(trace_id++, "bench", 100.0);
    reg.MarkExecuting(token);
    reg.Release(token);
    benchmark::DoNotOptimize(token);
  }
}
BENCHMARK(BM_InflightHookDisabled);

// Enabled lifecycle: slot claim (rotating-cursor CAS), tid stamp + state
// store, release store. This is the steady-state per-request cost while a
// crash handler or the stall watchdog is installed.
void BM_InflightHookEnabled(benchmark::State& state) {
  InflightRegistry& reg = InflightRegistry::Global();
  reg.ResetForTest();
  reg.SetEnabled(true);
  uint64_t trace_id = 1;
  for (auto _ : state) {
    const int token = reg.Register(trace_id++, "bench", 100.0);
    reg.MarkExecuting(token);
    reg.Release(token);
    benchmark::DoNotOptimize(token);
  }
  reg.SetEnabled(false);
  reg.ResetForTest();
}
BENCHMARK(BM_InflightHookEnabled);

void BM_RssSample(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(SampleRss());
  }
}
BENCHMARK(BM_RssSample);

// Restores the exemplar switch around the exemplar benches.
class ExemplarSwitchGuard {
 public:
  explicit ExemplarSwitchGuard(bool enabled) : prev_(ExemplarsEnabled()) {
    SetExemplarsEnabled(enabled);
  }
  ~ExemplarSwitchGuard() { SetExemplarsEnabled(prev_); }

 private:
  bool prev_;
};

// The acceptance contract for threading trace ids through Observe on the
// serving hot path: the exemplar capture (cursor fetch_add + slot CAS +
// three relaxed stores, never a spin) must add ≤ 5 ns over the plain
// Observe baseline above.
void BM_HistogramObserveExemplar(benchmark::State& state) {
  ModeGuard guard(TraceMode::kMetrics);
  ExemplarSwitchGuard exemplars(true);
  Histogram* hist =
      MetricRegistry::Global().GetHistogram("bench.obs.hist.exemplar.us");
  double v = 0.5;
  uint64_t trace_id = 1;
  for (auto _ : state) {
    hist->Observe(v, trace_id++);
    v += 1.375;
    if (v > 1e6) v = 0.5;
  }
  benchmark::DoNotOptimize(hist->Count());
}
BENCHMARK(BM_HistogramObserveExemplar);

// With exemplars switched off (TRMMA_EXEMPLARS=0) the trace-id overload
// must collapse to Observe plus one predicted branch and a relaxed load.
void BM_HistogramObserveExemplarDisabled(benchmark::State& state) {
  ModeGuard guard(TraceMode::kMetrics);
  ExemplarSwitchGuard exemplars(false);
  Histogram* hist =
      MetricRegistry::Global().GetHistogram("bench.obs.hist.exemplar.off.us");
  double v = 0.5;
  uint64_t trace_id = 1;
  for (auto _ : state) {
    hist->Observe(v, trace_id++);
    v += 1.375;
    if (v > 1e6) v = 0.5;
  }
  benchmark::DoNotOptimize(hist->Count());
}
BENCHMARK(BM_HistogramObserveExemplarDisabled);

// The acceptance contract for leaving the profiler linked into every
// binary: while not running, the hot-path check callers are expected to
// make (running()) is one relaxed load — ≤ 1 ns. The sampling cost itself
// is bounded by design, not benchmarked here: the SIGPROF handler does a
// bounded frame walk (≤ 48 guarded reads) into a pre-allocated ring, no
// allocation, locking or symbolization — see DESIGN.md §12 for the
// per-sample budget.
void BM_ProfilerDisabledCheck(benchmark::State& state) {
  CpuProfiler& profiler = CpuProfiler::Global();
  for (auto _ : state) {
    benchmark::DoNotOptimize(profiler.running());
  }
}
BENCHMARK(BM_ProfilerDisabledCheck);

// Synchronous capture through the signal handler's ring path: frame walk +
// slot claim + publish. This is the same work a SIGPROF costs the
// interrupted thread, so it doubles as a measured per-sample budget
// (expected: a few hundred ns, dominated by the guarded frame reads).
void BM_ProfilerSampleNow(benchmark::State& state) {
  CpuProfiler& profiler = CpuProfiler::Global();
  if (profiler.SampleNowForTest() == 0) {
    state.SkipWithError("frame walk unavailable (sanitizer build)");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(profiler.SampleNowForTest());
  }
  profiler.Reset();
}
BENCHMARK(BM_ProfilerSampleNow);

void BM_RegistryLookup(benchmark::State& state) {
  ModeGuard guard(TraceMode::kMetrics);
  for (auto _ : state) {
    Counter* counter = MetricRegistry::Global().GetCounter(
        "bench.obs.lookup", {{"city", "PT"}});
    benchmark::DoNotOptimize(counter);
  }
}
BENCHMARK(BM_RegistryLookup);

}  // namespace
}  // namespace obs
}  // namespace trmma

int main(int argc, char** argv) {
  trmma::bench::BenchRun run("micro_obs");
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
