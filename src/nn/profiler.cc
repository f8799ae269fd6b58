#include "nn/profiler.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "nn/matrix.h"
#include "obs/json.h"
#include "obs/trace.h"

namespace trmma {
namespace nn {
namespace {

bool EnabledFromEnv() {
  const char* env = std::getenv("TRMMA_OP_PROFILE");
  return env != nullptr && *env != '\0' && *env != '0';
}

thread_local const char* t_current_op = nullptr;

}  // namespace

std::atomic<bool> OpProfiler::enabled_{EnabledFromEnv()};

OpProfiler& OpProfiler::Global() {
  static OpProfiler* profiler = new OpProfiler();
  return *profiler;
}

void OpProfiler::RecordForward(const char* name, double us, double flops,
                               int64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  Cell& cell = cells_[name];
  cell.calls += 1;
  cell.fwd_us += us;
  cell.flops += flops;
  cell.bytes += bytes;
}

void OpProfiler::RecordBackward(const char* name, double us, int64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  Cell& cell = cells_[name];
  cell.bwd_us += us;
  cell.bytes += bytes;
}

std::vector<OpProfileEntry> OpProfiler::SortedEntries() const {
  std::vector<OpProfileEntry> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(cells_.size());
    for (const auto& [name, cell] : cells_) {
      OpProfileEntry e;
      e.name = name;
      e.calls = cell.calls;
      e.forward_us = cell.fwd_us;
      e.backward_us = cell.bwd_us;
      e.flops = cell.flops;
      e.bytes = cell.bytes;
      out.push_back(std::move(e));
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const OpProfileEntry& a, const OpProfileEntry& b) {
                     return a.total_us() > b.total_us();
                   });
  return out;
}

double OpProfiler::TotalAccountedMicros() const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0.0;
  for (const auto& [name, cell] : cells_) total += cell.fwd_us + cell.bwd_us;
  return total;
}

std::string OpProfiler::DumpString() const {
  const std::vector<OpProfileEntry> entries = SortedEntries();
  double total_us = 0.0;
  for (const OpProfileEntry& e : entries) total_us += e.total_us();
  std::string out =
      "op                    calls     fwd_ms     bwd_ms   total_ms  "
      "  %     MFLOP    alloc_MB\n";
  char buf[160];
  for (const OpProfileEntry& e : entries) {
    const double pct =
        total_us > 0.0 ? 100.0 * e.total_us() / total_us : 0.0;
    std::snprintf(buf, sizeof(buf),
                  "%-20s %6lld %10.3f %10.3f %10.3f %5.1f %9.2f %11.3f\n",
                  e.name.c_str(), static_cast<long long>(e.calls),
                  e.forward_us / 1e3, e.backward_us / 1e3,
                  e.total_us() / 1e3, pct, e.flops / 1e6,
                  static_cast<double>(e.bytes) / (1024.0 * 1024.0));
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "total accounted: %.3f ms over %zu op kinds\n",
                total_us / 1e3, entries.size());
  out += buf;
  return out;
}

std::string OpProfiler::ToJson() const {
  obs::JsonWriter w;
  w.BeginArray();
  for (const OpProfileEntry& e : SortedEntries()) {
    w.BeginObject();
    w.Key("name").String(e.name);
    w.Key("calls").Int(e.calls);
    w.Key("forward_us").Number(e.forward_us);
    w.Key("backward_us").Number(e.backward_us);
    w.Key("flops").Number(e.flops);
    w.Key("bytes").Int(e.bytes);
    w.EndObject();
  }
  w.EndArray();
  return w.TakeString();
}

void OpProfiler::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  cells_.clear();
}

const char* CurrentProfiledOp() { return t_current_op; }

OpScope::OpScope(const char* name) {
  if (!OpProfiler::Enabled()) return;
  name_ = name;
  prev_op_ = t_current_op;
  t_current_op = name;
  start_bytes_ = MatrixBytesAllocated();
  start_us_ = obs::NowMicros();
}

OpScope::~OpScope() {
  if (name_ == nullptr) return;
  const double us = obs::NowMicros() - start_us_;
  OpProfiler::Global().RecordForward(name_, us, flops_,
                                     MatrixBytesAllocated() - start_bytes_);
  t_current_op = prev_op_;
}

}  // namespace nn
}  // namespace trmma
