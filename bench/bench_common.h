#ifndef TRMMA_BENCH_BENCH_COMMON_H_
#define TRMMA_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.h"
#include "eval/experiment.h"
#include "eval/inspect.h"
#include "nn/profiler.h"
#include "obs/cpu_profiler.h"
#include "obs/flight_recorder.h"
#include "obs/mem_stats.h"
#include "obs/metrics.h"
#include "obs/postmortem.h"
#include "obs/quality.h"
#include "obs/stall_watchdog.h"
#include "obs/report.h"
#include "obs/slo.h"
#include "obs/telemetry_server.h"
#include "obs/trace.h"
#include "obs/trace_export.h"

namespace trmma {
namespace bench {

/// Workload sizes for the reproduction benches. The defaults ("full")
/// regenerate every paper table/figure in tens of minutes on one CPU;
/// setting the environment variable TRMMA_BENCH_SCALE=quick shrinks
/// everything for a fast smoke run, and TRMMA_BENCH_SCALE=smoke shrinks
/// further still (CI-sized: seconds per bench, combined with
/// TRMMA_BENCH_CITIES to limit the city sweep).
struct BenchScale {
  int traj_main = 2400;   ///< trajectories for PT / XA / CD
  int traj_bj = 2000;     ///< Beijing (largest network, longest trips)
  int eval_cap = 150;     ///< test trajectories evaluated per method
  int mma_epochs = 8;
  int lhmm_epochs = 3;
  int deepmm_epochs = 20;
  int trmma_epochs = 6;
  int seq2seq_epochs = 12;
};

inline const char* ScaleName() {
  const char* env = std::getenv("TRMMA_BENCH_SCALE");
  if (env != nullptr && std::strcmp(env, "quick") == 0) return "quick";
  if (env != nullptr && std::strcmp(env, "smoke") == 0) return "smoke";
  return "full";
}

inline BenchScale GetScale() {
  BenchScale s;
  const std::string scale = ScaleName();
  if (scale == "quick") {
    s.traj_main = 300;
    s.traj_bj = 200;
    s.eval_cap = 40;
    s.mma_epochs = 2;
    s.deepmm_epochs = 3;
    s.trmma_epochs = 2;
    s.seq2seq_epochs = 2;
  } else if (scale == "smoke") {
    s.traj_main = 80;
    s.traj_bj = 50;
    s.eval_cap = 10;
    s.mma_epochs = 1;
    s.lhmm_epochs = 1;
    s.deepmm_epochs = 1;
    s.trmma_epochs = 1;
    s.seq2seq_epochs = 1;
  }
  return s;
}

inline int TrajCountFor(const std::string& city, const BenchScale& scale) {
  return city == "BJ" ? scale.traj_bj : scale.traj_main;
}

/// Builds the dataset for one city at bench scale; aborts on failure. The
/// build is a report phase and the dataset shape goes into the run
/// fingerprint, so a BENCH_*.json pins down exactly what was measured.
inline Dataset BuildBenchDataset(const std::string& city,
                                 const BenchScale& scale) {
  obs::ScopedPhase phase("dataset." + city);
  auto ds = BuildCityDatasetByName(city, TrajCountFor(city, scale));
  if (!ds.ok()) {
    std::fprintf(stderr, "dataset %s failed: %s\n", city.c_str(),
                 ds.status().ToString().c_str());
    std::abort();
  }
  obs::RunReport& report = obs::RunReport::Global();
  const std::string prefix = "dataset." + city + ".";
  report.SetFingerprintNumber(prefix + "samples",
                              static_cast<double>(ds->samples.size()));
  report.SetFingerprintNumber(prefix + "nodes",
                              static_cast<double>(ds->network->num_nodes()));
  report.SetFingerprintNumber(
      prefix + "segments", static_cast<double>(ds->network->num_segments()));
  report.SetFingerprintNumber(prefix + "epsilon_s", ds->epsilon_s);
  report.SetFingerprintNumber(prefix + "gamma", ds->gamma);
  return std::move(ds).value();
}

/// Beijing's deep baselines get fewer epochs (its |E|-sized output layers
/// dominate; the point of the paper's comparison is exactly that cost).
inline int DeepEpochsFor(const std::string& city, int epochs) {
  return city == "BJ" ? std::max(2, epochs / 2) : epochs;
}

inline void PrintBanner(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
  std::fflush(stdout);
}

/// Turns on the flight recorder at 1-in-`sample_every` sampling for the
/// record/replay benches (fig5 / fig9). TRMMA_FLIGHT_RECORDER in the
/// environment wins: when the user already configured the recorder this is
/// a no-op, so an operator can force sample_every=1 or a custom path. The
/// JSONL sink goes next to the BENCH json when TRMMA_OBS_DIR is set.
inline void EnableFlightRecorder(int sample_every) {
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  if (recorder.enabled()) return;
  obs::FlightRecorderConfig config = obs::FlightRecorderConfigFromEnv();
  config.enabled = true;
  config.sample_every = sample_every;
  const char* dir = std::getenv("TRMMA_OBS_DIR");
  if (dir != nullptr && *dir != '\0' &&
      config.path == "flight_records.jsonl") {
    config.path = std::string(dir) + "/flight_records.jsonl";
  }
  recorder.Configure(config);
}

/// Turns on quality telemetry for the accuracy benches (Tables 3/4/5,
/// Figs. 7/11): every request's accuracy is attributed to slices and the
/// report gains a "quality" section. TRMMA_QUALITY=0 in the environment
/// wins, so an operator can time a run without the capture overhead.
inline void EnableQualityTelemetry() {
  const char* env = std::getenv("TRMMA_QUALITY");
  if (env != nullptr && env[0] == '0' && env[1] == '\0') return;
  obs::QualityLog::Global().Configure(true);
}

/// Replays every exemplar retained for `stack`'s city against the live
/// (still-trained) stack and aborts on any segment/offset divergence — the
/// bench-level record/replay determinism contract. Mismatches also land in
/// the report's flight_recorder section via AddReplayMismatches.
inline void CheckFlightReplay(ExperimentStack& stack) {
  if (!obs::FlightRecorder::Global().enabled()) return;
  const std::int64_t mismatches = ReplayRetainedRecords(stack);
  TRMMA_CHECK_EQ(mismatches, 0)
      << "flight-recorder replay diverged for city " << stack.dataset->name;
}

/// Per-bench observability bracket, constructed first thing in main():
///  - applies TRMMA_LOG_LEVEL and TRMMA_LOG_FILE,
///  - turns on metric collection (TraceMode::kMetrics) unless TRMMA_TRACE
///    already asked for more,
///  - turns on memory accounting (TRMMA_MEM_STATS=0 opts out), loads SLO
///    objectives from TRMMA_SLO_FILE, serves live telemetry when
///    TRMMA_HTTP_PORT is set, and starts the sampling CPU profiler when
///    TRMMA_CPU_PROFILE is set (see obs/cpu_profiler.h),
///  - names the global run report and stamps the scale fingerprint,
///  - on destruction stops the telemetry server, then writes
///    BENCH_<name>.json (to $TRMMA_OBS_DIR or the working directory) and,
///    under TRMMA_TRACE, dumps the span ring.
class BenchRun {
 public:
  explicit BenchRun(const std::string& name) {
    SetMinLogLevelFromEnv();
    SetLogFileFromEnv();
    if (obs::CurrentTraceMode() == obs::TraceMode::kOff) {
      obs::SetTraceMode(obs::TraceMode::kMetrics);
    }
    obs::InitMemStatsFromEnv();
    obs::SloWatchdog::Global().InstallFromEnv();
    obs::TelemetryServer::Global().StartFromEnv();
    obs::CpuProfiler::Global().StartFromEnv();
    // Postmortem surface: a crash (or external kill -SEGV) during any bench
    // leaves a schema-valid report when TRMMA_POSTMORTEM_DIR is set, and
    // TRMMA_WATCHDOG_MS arms the stuck-request scanner. The install path
    // registers the calling thread so the report's thread list includes main.
    obs::InstallCrashHandlerFromEnv();
    obs::StallWatchdog::Global().StartFromEnv();
    obs::RunReport& report = obs::RunReport::Global();
    report.SetName(name);
    report.SetFingerprint("scale", ScaleName());
    const char* cities = std::getenv("TRMMA_BENCH_CITIES");
    if (cities != nullptr && *cities != '\0') {
      report.SetFingerprint("cities", cities);
    }
  }

  ~BenchRun() {
    // Stop serving before the final report snapshot: no scrape should race
    // the registry while the report is being written, and the accept thread
    // must be joined for a clean ASan/LSan exit. Smoke-scale runs can
    // finish in under a scrape round-trip, so TRMMA_HTTP_LINGER_MS holds
    // the exporter open until the scraper GETs /quitz (or the cap passes).
    obs::TelemetryServer& server = obs::TelemetryServer::Global();
    const char* linger = std::getenv("TRMMA_HTTP_LINGER_MS");
    if (server.running() && linger != nullptr && *linger != '\0') {
      server.WaitForQuit(std::atoi(linger));
    }
    server.Stop();
    // Join the watchdog scan thread too — same clean-exit reasoning.
    obs::StallWatchdog::Global().Stop();
    if (obs::CurrentTraceMode() == obs::TraceMode::kTrace) {
      std::fprintf(stderr, "---- trace ring (most recent spans) ----\n%s",
                   obs::TraceRing::Global().DumpString().c_str());
      const std::string trace_path = obs::ExportChromeTraceFromEnv();
      if (!trace_path.empty()) {
        std::printf("chrome trace: %s (load in chrome://tracing or "
                    "ui.perfetto.dev)\n",
                    trace_path.c_str());
      }
    }
    if (nn::OpProfiler::Enabled()) {
      std::printf("---- op profile ----\n%s",
                  nn::OpProfiler::Global().DumpString().c_str());
    }
    auto path = obs::RunReport::Global().WriteFile();
    if (path.ok()) {
      std::printf("report: %s\n", path.value().c_str());
    } else {
      std::fprintf(stderr, "report write failed: %s\n",
                   path.status().ToString().c_str());
    }
  }

  BenchRun(const BenchRun&) = delete;
  BenchRun& operator=(const BenchRun&) = delete;
};

}  // namespace bench
}  // namespace trmma

#endif  // TRMMA_BENCH_BENCH_COMMON_H_
