#include "obs/report.h"

#include <cstdio>
#include <cstdlib>
#include <ctime>

#include "nn/profiler.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/mem_stats.h"
#include "obs/metrics.h"
#include "obs/quality.h"
#include "obs/slo.h"
#include "obs/train_log.h"

namespace trmma {
namespace obs {

RunReport& RunReport::Global() {
  static RunReport* report = new RunReport();
  return *report;
}

void RunReport::SetName(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  name_ = name;
}

std::string RunReport::name() const {
  std::lock_guard<std::mutex> lock(mu_);
  return name_;
}

void RunReport::AddPhaseSeconds(const std::string& name, double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = phases_.find(name);
  if (it == phases_.end()) {
    phase_order_.push_back(name);
    it = phases_.emplace(name, Phase{}).first;
  }
  it->second.seconds += seconds;
  it->second.count += 1;
}

void RunReport::SetFingerprint(const std::string& key,
                               const std::string& value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (fingerprint_.find(key) == fingerprint_.end()) {
    fingerprint_order_.push_back(key);
  }
  fingerprint_[key] = {false, value};
}

void RunReport::SetFingerprintNumber(const std::string& key, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (fingerprint_.find(key) == fingerprint_.end()) {
    fingerprint_order_.push_back(key);
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", value);
  fingerprint_[key] = {true, buf};
}

void RunReport::SetSectionJson(const std::string& name,
                               const std::string& json) {
  std::lock_guard<std::mutex> lock(mu_);
  if (sections_.find(name) == sections_.end()) {
    section_order_.push_back(name);
  }
  sections_[name] = json;
}

std::string RunReport::ToJson() const {
  // Refresh the derived telemetry (memory/lock gauges, SLO breach counters)
  // before snapshotting, so the report's metrics section carries the final
  // state of this run — the same refresh the /metrics endpoint does per
  // scrape.
  PublishMemoryMetrics(&MetricRegistry::Global());
  PublishLockMetrics(&MetricRegistry::Global());
  std::string slo_json;
  if (SloWatchdog::Global().active()) {
    slo_json =
        SloResultsJson(SloWatchdog::Global().Evaluate(&MetricRegistry::Global()));
  }
  const std::string memory_json = MemStatsEnabled() ? MemoryJson() : "";
  // Subsystem snapshots are taken outside our lock (separate subsystems).
  const std::string metrics_json = MetricRegistry::Global().JsonDump();
  const std::string op_profile_json = nn::OpProfiler::Global().ToJson();
  const std::string training_json = TrainLogger::Global().HasRows()
                                        ? TrainLogger::Global().SummaryJson()
                                        : std::string();
  // Flight-recorder stats appear only when the recorder was on, and a final
  // Flush first makes sure the stats describe what is actually on disk.
  std::string flight_json;
  if (FlightRecorder::Global().enabled()) {
    FlightRecorder::Global().Flush();
    flight_json = FlightRecorder::Global().StatsJson();
  }
  const std::string quality_json = QualityLog::Global().HasData()
                                       ? QualityLog::Global().SummaryJson()
                                       : std::string();

  std::lock_guard<std::mutex> lock(mu_);
  JsonWriter w;
  w.BeginObject();
  w.Key("name").String(name_);
  w.Key("created_unix").Int(static_cast<long long>(std::time(nullptr)));
  w.Key("wall_seconds").Number(wall_.ElapsedSeconds());
  w.Key("fingerprint").BeginObject();
  for (const std::string& key : fingerprint_order_) {
    const auto& [is_number, text] = fingerprint_.at(key);
    w.Key(key);
    if (is_number) {
      double v = 0.0;
      std::sscanf(text.c_str(), "%lf", &v);
      w.Number(v);
    } else {
      w.String(text);
    }
  }
  w.EndObject();
  w.Key("phases").BeginArray();
  for (const std::string& key : phase_order_) {
    const Phase& phase = phases_.at(key);
    w.BeginObject();
    w.Key("name").String(key);
    w.Key("seconds").Number(phase.seconds);
    w.Key("count").Int(phase.count);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  std::string out = w.TakeString();
  // Splice the registry snapshot in as the "metrics" member: drop our
  // closing '}' and append. The op-profile and training sections come from
  // their own subsystems the same way, and only when they have data, so
  // unprofiled runs keep the original schema.
  out.pop_back();
  out += ",\"metrics\":";
  out += metrics_json;
  if (op_profile_json != "[]") {
    out += ",\"op_profile\":";
    out += op_profile_json;
  }
  if (!training_json.empty()) {
    out += ",\"training\":";
    out += training_json;
  }
  if (!flight_json.empty()) {
    out += ",\"flight_recorder\":";
    out += flight_json;
  }
  if (!quality_json.empty()) {
    out += ",\"quality\":";
    out += quality_json;
  }
  if (!memory_json.empty()) {
    out += ",\"memory\":";
    out += memory_json;
  }
  if (!slo_json.empty()) {
    out += ",\"slo\":";
    out += slo_json;
  }
  for (const std::string& section : section_order_) {
    out += ",\"" + section + "\":";
    out += sections_.at(section);
  }
  out += '}';
  return out;
}

StatusOr<std::string> RunReport::WriteFile(const std::string& dir) const {
  std::string out_dir = dir;
  if (out_dir.empty()) {
    const char* env = std::getenv("TRMMA_OBS_DIR");
    out_dir = env != nullptr && *env != '\0' ? env : ".";
  }
  const std::string path = out_dir + "/BENCH_" + name() + ".json";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("cannot open " + path + " for writing");
  }
  const std::string json = ToJson();
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool flushed = std::fclose(f) == 0;
  if (written != json.size() || !flushed) {
    return Status::IOError("short write to " + path);
  }
  return path;
}

void RunReport::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  phase_order_.clear();
  phases_.clear();
  fingerprint_order_.clear();
  fingerprint_.clear();
  section_order_.clear();
  sections_.clear();
  wall_.Restart();
}

ScopedPhase::~ScopedPhase() {
  RunReport::Global().AddPhaseSeconds(name_, watch_.ElapsedSeconds());
}

}  // namespace obs
}  // namespace trmma
