#include "obs/cpu_profiler.h"

#include <signal.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "obs/json.h"
#include "obs/stack_walk.h"

namespace trmma {
namespace obs {
namespace {

constexpr int kMaxFrames = kStackMaxFrames;
constexpr int kEpochCapacity = 4096;  ///< samples per epoch buffer

/// One epoch of raw samples, written lock-free by the signal handler:
/// a slot is claimed with one fetch_add on `head`, its frames are filled,
/// then `ready[slot]` publishes the depth (release) — the reader only
/// trusts slots whose ready flag is nonzero. Overflow is counted, never
/// blocked on: the handler must stay wait-free.
struct EpochBuffer {
  std::atomic<int64_t> head{0};
  std::atomic<int64_t> dropped{0};
  std::atomic<int> ready[kEpochCapacity];
  void* frames[kEpochCapacity][kMaxFrames];
};

/// Static storage (BSS, ~3.2 MB): the handler may fire before any
/// constructor and must never allocate.
EpochBuffer g_epochs[2];
std::atomic<int> g_active_epoch{0};
std::atomic<int> g_max_depth{kMaxFrames};
std::atomic<int64_t> g_truncated{0};

/// Claims a slot in the active epoch and publishes one sample. Shared by
/// the signal handler and the synchronous test hook. The walk itself is the
/// shared async-signal-safe frame-pointer walker (obs/stack_walk.h).
int RecordSample(void* ucv) {
  EpochBuffer& buf =
      g_epochs[g_active_epoch.load(std::memory_order_relaxed) & 1];
  const int64_t slot = buf.head.fetch_add(1, std::memory_order_relaxed);
  if (slot >= kEpochCapacity) {
    buf.dropped.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  const int max_depth = g_max_depth.load(std::memory_order_relaxed);
  const int depth = CaptureStack(ucv, buf.frames[slot], max_depth);
  if (depth == max_depth) {
    g_truncated.fetch_add(1, std::memory_order_relaxed);
  }
  buf.ready[slot].store(depth, std::memory_order_release);
  return depth;
}

void ProfileSignalHandler(int, siginfo_t*, void* ucv) {
  // Everything below is wait-free and allocation-free. The guarded frame
  // reads are syscalls and may set errno, which must be invisible to the
  // interrupted code. Budget: two atomic RMWs plus one process_vm_readv
  // per walked frame (≤ max_depth).
  const int saved_errno = errno;
  RecordSample(ucv);
  errno = saved_errno;
}

/// Aggregate profile state, touched only under the profiler mutex and never
/// from the signal handler.
std::map<std::vector<void*>, int64_t> g_aggregate;  // leaf-first stacks
std::unordered_map<void*, std::string> g_symbols;
int64_t g_samples = 0;
int64_t g_dropped = 0;
std::string g_dump_path;

const std::string& SymbolFor(void* pc) {
  auto it = g_symbols.find(pc);
  if (it != g_symbols.end()) return it->second;
  return g_symbols.emplace(pc, SymbolizePc(pc)).first->second;
}

}  // namespace

CpuProfiler& CpuProfiler::Global() {
  static CpuProfiler* profiler = new CpuProfiler();
  return *profiler;
}

Status CpuProfiler::Start(const CpuProfilerConfig& config) {
  if (!StackWalkSupported()) {
    (void)config;
    return Status::FailedPrecondition(
        "cpu profiler disabled: frame walk unavailable (sanitizer build or "
        "unsupported architecture)");
  }
  std::lock_guard<TrackedMutex> lock(mu_);
  if (running_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition("cpu profiler already running");
  }
  hz_ = std::clamp(config.hz, 1, 1000);
  g_max_depth.store(std::clamp(config.max_depth, 4, kMaxFrames),
                    std::memory_order_relaxed);

  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_sigaction = &ProfileSignalHandler;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, nullptr) != 0) {
    return Status::Internal(std::string("sigaction(SIGPROF) failed: ") +
                            std::strerror(errno));
  }
  itimerval timer;
  const long interval_us = std::max(1000000L / hz_, 1L);
  timer.it_interval.tv_sec = interval_us / 1000000;
  timer.it_interval.tv_usec = interval_us % 1000000;
  timer.it_value = timer.it_interval;
  if (setitimer(ITIMER_PROF, &timer, nullptr) != 0) {
    return Status::Internal(std::string("setitimer(ITIMER_PROF) failed: ") +
                            std::strerror(errno));
  }
  running_.store(true, std::memory_order_relaxed);
  return Status::OK();
}

void CpuProfiler::Stop() {
  std::lock_guard<TrackedMutex> lock(mu_);
  if (!running_.load(std::memory_order_relaxed)) return;
  itimerval off;
  std::memset(&off, 0, sizeof(off));
  setitimer(ITIMER_PROF, &off, nullptr);
  running_.store(false, std::memory_order_relaxed);
  // The handler stays installed: a signal already in flight lands in the
  // (inactive but valid) epoch buffer instead of killing the process.
  DrainLocked();
}

bool CpuProfiler::StartFromEnv() {
  const char* env = std::getenv("TRMMA_CPU_PROFILE");
  if (env == nullptr || *env == '\0' || std::strcmp(env, "0") == 0 ||
      std::strcmp(env, "off") == 0) {
    return false;
  }
  CpuProfilerConfig config;
  const char* hz = std::getenv("TRMMA_CPU_PROFILE_HZ");
  if (hz != nullptr && *hz != '\0') {
    const int v = std::atoi(hz);
    if (v > 0) config.hz = v;
  }
  const Status start = Start(config);
  if (!start.ok()) {
    TRMMA_LOG(Warning) << "TRMMA_CPU_PROFILE ignored: " << start.message();
    return false;
  }
  if (std::strcmp(env, "1") != 0 && std::strcmp(env, "on") != 0) {
    bool install = false;
    {
      std::lock_guard<TrackedMutex> lock(mu_);
      install = g_dump_path.empty();
      g_dump_path = env;
    }
    if (install) {
      std::atexit([] {
        CpuProfiler& p = CpuProfiler::Global();
        p.Stop();
        std::string path;
        {
          std::lock_guard<TrackedMutex> lock(p.mu_);
          path = g_dump_path;
        }
        if (path.empty()) return;
        const std::string folded = p.FoldedStacks();
        if (std::FILE* f = std::fopen(path.c_str(), "w")) {
          std::fwrite(folded.data(), 1, folded.size(), f);
          std::fclose(f);
          std::fprintf(stderr, "[trmma] cpu profile written to %s\n",
                       path.c_str());
        }
        const std::string html = p.FlamegraphHtml();
        const std::string html_path = path + ".html";
        if (std::FILE* f = std::fopen(html_path.c_str(), "w")) {
          std::fwrite(html.data(), 1, html.size(), f);
          std::fclose(f);
        }
      });
    }
  }
  return true;
}

void CpuProfiler::DrainLocked() {
  const int old = g_active_epoch.load(std::memory_order_relaxed);
  g_active_epoch.store(old ^ 1, std::memory_order_relaxed);
  // Let in-flight handlers that already picked the old epoch finish
  // publishing; their ready flags are release-stored, ours acquire-loaded.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EpochBuffer& buf = g_epochs[old & 1];
  const int64_t n =
      std::min<int64_t>(buf.head.load(std::memory_order_relaxed),
                        kEpochCapacity);
  std::vector<void*> stack;
  for (int64_t i = 0; i < n; ++i) {
    const int depth = buf.ready[i].load(std::memory_order_acquire);
    if (depth <= 0) continue;  // unpublished or failed capture
    stack.assign(buf.frames[i], buf.frames[i] + depth);
    ++g_aggregate[stack];
    ++g_samples;
  }
  g_dropped += buf.dropped.exchange(0, std::memory_order_relaxed);
  for (int64_t i = 0; i < n; ++i) {
    buf.ready[i].store(0, std::memory_order_relaxed);
  }
  buf.head.store(0, std::memory_order_relaxed);
}

CpuProfilerStats CpuProfiler::stats() {
  std::lock_guard<TrackedMutex> lock(mu_);
  DrainLocked();
  CpuProfilerStats out;
  out.samples = g_samples;
  out.dropped = g_dropped;
  out.truncated = g_truncated.load(std::memory_order_relaxed);
  return out;
}

std::string CpuProfiler::FoldedStacks() {
  std::lock_guard<TrackedMutex> lock(mu_);
  DrainLocked();
  std::string out;
  for (const auto& [stack, count] : g_aggregate) {
    // Stored leaf-first (walk order); folded format wants root-first.
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      if (it != stack.rbegin()) out += ';';
      out += SymbolFor(*it);
    }
    out += ' ';
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

std::string CpuProfiler::ProfileSectionJson(int top_n) {
  std::lock_guard<TrackedMutex> lock(mu_);
  DrainLocked();
  // Per-symbol self (leaf) and total (anywhere on the stack, counted once
  // per sample) counts.
  std::map<std::string, std::pair<int64_t, int64_t>> frames;  // self,total
  std::vector<const std::string*> seen;
  for (const auto& [stack, count] : g_aggregate) {
    if (stack.empty()) continue;
    frames[SymbolFor(stack.front())].first += count;
    seen.clear();
    for (void* pc : stack) {
      const std::string& sym = SymbolFor(pc);
      bool dup = false;
      for (const std::string* s : seen) dup = dup || *s == sym;
      if (dup) continue;
      seen.push_back(&sym);
      frames[sym].second += count;
    }
  }
  std::vector<std::pair<std::string, std::pair<int64_t, int64_t>>> ranked(
      frames.begin(), frames.end());
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) {
                     if (a.second.first != b.second.first) {
                       return a.second.first > b.second.first;
                     }
                     return a.second.second > b.second.second;
                   });
  if (top_n > 0 && static_cast<size_t>(top_n) < ranked.size()) {
    ranked.resize(static_cast<size_t>(top_n));
  }
  JsonWriter w;
  w.BeginObject();
  w.Key("hz").Int(hz_);
  w.Key("samples").Int(g_samples);
  w.Key("dropped").Int(g_dropped);
  w.Key("truncated").Int(g_truncated.load(std::memory_order_relaxed));
  w.Key("frames").BeginArray();
  for (const auto& [symbol, counts] : ranked) {
    w.BeginObject();
    w.Key("symbol").String(symbol);
    w.Key("self").Int(counts.first);
    w.Key("total").Int(counts.second);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.TakeString();
}

std::string CpuProfiler::FlamegraphHtml() {
  const std::string folded = FoldedStacks();
  // Self-contained: the folded text rides along in a template literal and
  // a small script builds the flame boxes. No external assets.
  std::string escaped;
  escaped.reserve(folded.size());
  for (char c : folded) {
    if (c == '\\' || c == '`' || c == '$') escaped += '\\';
    escaped += c;
  }
  std::string html;
  html += "<!doctype html><html><head><meta charset=\"utf-8\">";
  html += "<title>trmma cpu profile</title><style>\n";
  html += "body{font:12px monospace;margin:12px;background:#fff}\n";
  html += "#flame{position:relative;width:100%;}\n";
  html += ".f{position:absolute;height:16px;overflow:hidden;";
  html += "white-space:nowrap;border:1px solid #fff;box-sizing:border-box;";
  html += "cursor:default;font-size:11px;line-height:14px;padding-left:2px}\n";
  html += ".f:hover{border-color:#000}\n";
  html += "</style></head><body>\n";
  html += "<h3>trmma cpu profile (flamegraph)</h3><div id=\"meta\"></div>\n";
  html += "<div id=\"flame\"></div>\n";
  html += "<script>\nconst folded=`";
  html += escaped;
  html += "`;\n";
  html +=
      "const root={name:'all',self:0,total:0,kids:new Map()};\n"
      "let total=0;\n"
      "for(const line of folded.split('\\n')){\n"
      "  if(!line)continue;\n"
      "  const sp=line.lastIndexOf(' ');\n"
      "  const count=parseInt(line.slice(sp+1),10)||0;\n"
      "  const frames=line.slice(0,sp).split(';');\n"
      "  total+=count;let node=root;node.total+=count;\n"
      "  for(const f of frames){\n"
      "    if(!node.kids.has(f))node.kids.set(f,{name:f,self:0,total:0,"
      "kids:new Map()});\n"
      "    node=node.kids.get(f);node.total+=count;\n"
      "  }\n"
      "  node.self+=count;\n"
      "}\n"
      "document.getElementById('meta').textContent=total+' samples';\n"
      "const el=document.getElementById('flame');\n"
      "const W=el.clientWidth||1000;\n"
      "const colors=['#e66','#e96','#ec6','#cc5','#9c6'];\n"
      "let maxDepth=0;\n"
      "function layout(node,x,depth){\n"
      "  maxDepth=Math.max(maxDepth,depth);\n"
      "  let cx=x;\n"
      "  for(const kid of node.kids.values()){\n"
      "    const w=total>0?kid.total/total*W:0;\n"
      "    if(w>=1){\n"
      "      const d=document.createElement('div');\n"
      "      d.className='f';\n"
      "      d.style.left=cx+'px';d.style.top=(depth*17)+'px';\n"
      "      d.style.width=w+'px';\n"
      "      d.style.background=colors[depth%colors.length];\n"
      "      const pct=(100*kid.total/total).toFixed(1);\n"
      "      d.textContent=kid.name;\n"
      "      d.title=kid.name+' — '+kid.total+' samples ('+pct+'%), "
      "self '+kid.self;\n"
      "      el.appendChild(d);\n"
      "      layout(kid,cx,depth+1);\n"
      "    }\n"
      "    cx+=w;\n"
      "  }\n"
      "}\n"
      "layout(root,0,0);\n"
      "el.style.height=((maxDepth+1)*17)+'px';\n"
      "</script></body></html>\n";
  return html;
}

int CpuProfiler::SampleNowForTest() {
  if (!StackWalkSupported()) return 0;
  return RecordSample(nullptr);
}

void CpuProfiler::Reset() {
  Stop();
  std::lock_guard<TrackedMutex> lock(mu_);
  for (EpochBuffer& buf : g_epochs) {
    const int64_t n =
        std::min<int64_t>(buf.head.load(std::memory_order_relaxed),
                          kEpochCapacity);
    for (int64_t i = 0; i < n; ++i) {
      buf.ready[i].store(0, std::memory_order_relaxed);
    }
    buf.head.store(0, std::memory_order_relaxed);
    buf.dropped.store(0, std::memory_order_relaxed);
  }
  g_aggregate.clear();
  g_samples = 0;
  g_dropped = 0;
  g_truncated.store(0, std::memory_order_relaxed);
}

}  // namespace obs
}  // namespace trmma
