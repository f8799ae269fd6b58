#include "obs/telemetry_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include <algorithm>
#include <map>

#include "obs/cpu_profiler.h"
#include "obs/json.h"
#include "obs/mem_stats.h"
#include "obs/metrics.h"
#include "obs/postmortem.h"
#include "obs/slo.h"
#include "obs/stack_walk.h"
#include "obs/trace.h"
#include "obs/tracked_mutex.h"

namespace trmma {
namespace obs {
namespace {

struct HttpResponse {
  int code = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

const char* ReasonPhrase(int code) {
  switch (code) {
    case 200:
      return "OK";
    case 404:
      return "Not Found";
    default:
      return "Error";
  }
}

std::string StatuszJson(double uptime_us, std::int64_t requests) {
  JsonWriter w;
  w.BeginObject();
  w.Key("build_compiler").String(__VERSION__);
#ifdef NDEBUG
  w.Key("build_type").String("release");
#else
  w.Key("build_type").String("debug");
#endif
  w.Key("pid").Int(static_cast<long long>(::getpid()));
  w.Key("uptime_us").Number(uptime_us);
  w.Key("trace_mode").Int(static_cast<int>(CurrentTraceMode()));
  w.Key("requests_served").Int(requests);
  w.Key("active_spans")
      .Int(static_cast<long long>(TraceRing::Global().Snapshot().size()));
  w.EndObject();
  std::string out = w.TakeString();
  // Splice the pre-rendered sub-documents (same idiom as report.cc).
  out.pop_back();
  out += ",\"locks\":" + LockStatsJson();
  out += ",\"memory\":" + MemoryJson();
  out += ",\"slo\":" + SloWatchdog::Global().StatusJson() + "}";
  return out;
}

/// /tracez: the span ring grouped by trace id — one entry per request with
/// its end-to-end duration and a per-span-name time breakdown — instead of
/// the raw ring dump (which interleaved every thread's spans and grew
/// unbounded with the ring). Newest traces first; the response is capped at
/// kTracezMaxTraces entries and untraced spans are summarized as a count.
std::string TracezJson() {
  constexpr size_t kTracezMaxTraces = 50;
  const std::vector<SpanRecord> spans = TraceRing::Global().Snapshot();

  struct TraceGroup {
    double start_us = 0.0;
    double end_us = 0.0;
    double root_duration_us = -1.0;  ///< serve.request span when present
    int span_count = 0;
    std::map<std::string, std::pair<int, double>> breakdown;  // count, us
  };
  std::map<uint64_t, TraceGroup> traces;
  int64_t untraced = 0;
  for (const SpanRecord& span : spans) {
    if (span.trace_id == 0) {
      ++untraced;
      continue;
    }
    TraceGroup& group = traces[span.trace_id];
    const double end = span.start_us + span.duration_us;
    if (group.span_count == 0 || span.start_us < group.start_us) {
      group.start_us = span.start_us;
    }
    group.end_us = std::max(group.end_us, end);
    ++group.span_count;
    const std::string name = span.name != nullptr ? span.name : "?";
    if (span.parent_seq < 0 && span.lane > 0) {
      group.root_duration_us =
          std::max(group.root_duration_us, span.duration_us);
    }
    auto& slot = group.breakdown[name];
    ++slot.first;
    slot.second += span.duration_us;
  }

  // Newest first: order by trace start descending.
  std::vector<std::pair<uint64_t, const TraceGroup*>> ordered;
  ordered.reserve(traces.size());
  for (const auto& [id, group] : traces) ordered.emplace_back(id, &group);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const auto& a, const auto& b) {
                     return a.second->start_us > b.second->start_us;
                   });
  const bool truncated = ordered.size() > kTracezMaxTraces;
  if (truncated) ordered.resize(kTracezMaxTraces);

  JsonWriter w;
  w.BeginObject();
  w.Key("span_count").Int(static_cast<long long>(spans.size()));
  w.Key("trace_count").Int(static_cast<long long>(traces.size()));
  w.Key("untraced_spans").Int(untraced);
  w.Key("truncated").Bool(truncated);
  w.Key("traces").BeginArray();
  for (const auto& [id, group] : ordered) {
    w.BeginObject();
    w.Key("trace_id").String(TraceIdHex(id));
    w.Key("spans").Int(group->span_count);
    w.Key("start_us").Number(group->start_us);
    w.Key("duration_us")
        .Number(group->root_duration_us >= 0.0
                    ? group->root_duration_us
                    : group->end_us - group->start_us);
    w.Key("breakdown").BeginArray();
    for (const auto& [name, slot] : group->breakdown) {
      w.BeginObject();
      w.Key("name").String(name);
      w.Key("count").Int(slot.first);
      w.Key("total_us").Number(slot.second);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.TakeString();
}

HttpResponse Dispatch(const std::string& path, double uptime_us,
                      std::int64_t requests) {
  HttpResponse resp;
  if (path == "/metrics") {
    // Refresh the derived telemetry before the scrape so gauges and SLO
    // breach counters reflect this instant, not the last report write.
    MetricRegistry& registry = MetricRegistry::Global();
    PublishMemoryMetrics(&registry);
    PublishLockMetrics(&registry);
    if (SloWatchdog::Global().active()) {
      SloWatchdog::Global().Evaluate(&registry);
    }
    resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
    resp.body = registry.WriteText();
    return resp;
  }
  if (path == "/healthz") {
    resp.body = "ok\n";
    return resp;
  }
  if (path == "/statusz") {
    resp.content_type = "application/json";
    resp.body = StatuszJson(uptime_us, requests) + "\n";
    return resp;
  }
  if (path == "/tracez") {
    resp.content_type = "application/json";
    resp.body = TracezJson() + "\n";
    return resp;
  }
  if (path == "/slo") {
    resp.content_type = "application/json";
    resp.body = SloWatchdog::Global().StatusJson() + "\n";
    return resp;
  }
  if (path == "/pprof") {
    // Live folded-stack profile (drains the sampler's pending epoch).
    CpuProfiler& profiler = CpuProfiler::Global();
    if (!profiler.running() && profiler.stats().samples == 0) {
      resp.code = 404;
      resp.body =
          "cpu profiler not running (set TRMMA_CPU_PROFILE=1 or call "
          "CpuProfiler::Start)\n";
      return resp;
    }
    resp.body = profiler.FoldedStacks();
    return resp;
  }
  if (path == "/pprof/flame") {
    resp.content_type = "text/html; charset=utf-8";
    resp.body = CpuProfiler::Global().FlamegraphHtml();
    return resp;
  }
  if (path == "/pprof/json") {
    resp.content_type = "application/json";
    resp.body = CpuProfiler::Global().ProfileSectionJson(20) + "\n";
    return resp;
  }
  if (path == "/debug/stacks") {
    // All-thread stack dump via the SIGUSR2 rendezvous (obs/stack_walk.h).
    ThreadStack stacks[ThreadRegistry::kMaxThreads];
    const int count = ThreadRegistry::Global().CaptureAllStacks(
        stacks, ThreadRegistry::kMaxThreads);
    resp.body = "registered threads: " +
                std::to_string(ThreadRegistry::Global().registered_count()) +
                "\n" + FormatThreadStacks(stacks, count);
    return resp;
  }
  if (path == "/debug/postmortem") {
    // A live postmortem document (signal 0): exactly what a crash report
    // would contain if the process died right now.
    resp.content_type = "application/json";
    resp.body = BuildPostmortemJson(PostmortemContext{}) + "\n";
    return resp;
  }
  resp.code = 404;
  resp.body = "not found: " + path + "\navailable endpoints:\n";
  static const char* const kEndpoints[] = {
      "/metrics",     "/healthz",      "/statusz",
      "/tracez",      "/slo",          "/pprof",
      "/pprof/flame", "/pprof/json",   "/debug/stacks",
      "/debug/postmortem",             "/quitz",
  };
  for (const char* endpoint : kEndpoints) {
    resp.body += "  ";
    resp.body += endpoint;
    resp.body += '\n';
  }
  return resp;
}

}  // namespace

TelemetryServer& TelemetryServer::Global() {
  static TelemetryServer* server = new TelemetryServer();
  return *server;
}

TelemetryServer::~TelemetryServer() { Stop(); }

Status TelemetryServer::Start(int port) {
  if (running()) return Status::FailedPrecondition("telemetry already running");
  if (port < 0 || port > 65535) {
    return Status::InvalidArgument("bad telemetry port");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("telemetry: socket() failed: ") +
                           std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int saved_errno = errno;
    ::close(fd);
    return Status::IOError("telemetry: bind 127.0.0.1:" +
                           std::to_string(port) +
                           " failed: " + std::strerror(saved_errno));
  }
  if (::listen(fd, 16) != 0) {
    const int saved_errno = errno;
    ::close(fd);
    return Status::IOError(std::string("telemetry: listen() failed: ") +
                           std::strerror(saved_errno));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    const int saved_errno = errno;
    ::close(fd);
    return Status::IOError(std::string("telemetry: getsockname() failed: ") +
                           std::strerror(saved_errno));
  }
  listen_fd_ = fd;
  port_.store(ntohs(addr.sin_port), std::memory_order_release);
  start_us_ = NowMicros();
  stop_.store(false, std::memory_order_release);
  quit_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { Serve(); });
  return Status::OK();
}

void TelemetryServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  port_.store(0, std::memory_order_release);
}

void TelemetryServer::Serve() {
  ScopedThreadRegistration registration("telemetry.http");
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd;
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    // Short timeout so Stop() is observed within ~200 ms.
    const int n = ::poll(&pfd, 1, 200);
    if (n <= 0 || (pfd.revents & POLLIN) == 0) continue;
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;
    QueueDepth::Scope scope(inflight_);
    HandleConnection(conn);
    ::close(conn);
  }
}

void TelemetryServer::HandleConnection(int fd) {
  // Bound both the request size and the wait for it.
  timeval tv;
  tv.tv_sec = 2;
  tv.tv_usec = 0;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  char buf[4096];
  size_t got = 0;
  while (got < sizeof(buf) - 1) {
    const ssize_t n = ::recv(fd, buf + got, sizeof(buf) - 1 - got, 0);
    if (n <= 0) break;
    got += static_cast<size_t>(n);
    buf[got] = '\0';
    if (std::strstr(buf, "\r\n\r\n") != nullptr ||
        std::strstr(buf, "\n\n") != nullptr) {
      break;
    }
  }
  buf[got] = '\0';
  std::string path = "/";
  if (std::strncmp(buf, "GET ", 4) == 0) {
    const char* start = buf + 4;
    const char* end = start;
    while (*end != '\0' && *end != ' ' && *end != '\r' && *end != '\n') ++end;
    path.assign(start, end);
    // Queries are ignored: every endpoint is parameterless.
    const size_t q = path.find('?');
    if (q != std::string::npos) path.resize(q);
  }
  const std::int64_t requests =
      requests_.fetch_add(1, std::memory_order_relaxed) + 1;
  HttpResponse resp;
  if (path == "/quitz") {
    // Handled here, not in Dispatch: the handshake flips server state.
    quit_.store(true, std::memory_order_release);
    resp.body = "bye\n";
  } else {
    resp = Dispatch(path, NowMicros() - start_us_, requests);
  }
  char header[256];
  std::snprintf(header, sizeof(header),
                "HTTP/1.0 %d %s\r\nContent-Type: %s\r\n"
                "Content-Length: %zu\r\nConnection: close\r\n\r\n",
                resp.code, ReasonPhrase(resp.code), resp.content_type.c_str(),
                resp.body.size());
  std::string out = header;
  out += resp.body;
  size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n = ::send(fd, out.data() + sent, out.size() - sent,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
}

bool TelemetryServer::WaitForQuit(int timeout_ms) {
  if (!running()) return true;
  const double deadline_us = NowMicros() + 1000.0 * timeout_ms;
  while (!quit_.load(std::memory_order_acquire) &&
         NowMicros() < deadline_us) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return quit_.load(std::memory_order_acquire);
}

bool TelemetryServer::StartFromEnv() {
  const char* env = std::getenv("TRMMA_HTTP_PORT");
  if (env == nullptr || *env == '\0') return false;
  const int port = std::atoi(env);
  const Status status = Start(port);
  if (!status.ok()) {
    std::fprintf(stderr, "trmma: TRMMA_HTTP_PORT ignored: %s\n",
                 status.ToString().c_str());
    return false;
  }
  // Printed (and flushed) so harnesses can discover an ephemeral port.
  std::printf("telemetry: serving on 127.0.0.1:%d\n", this->port());
  std::fflush(stdout);
  std::atexit([] { TelemetryServer::Global().Stop(); });
  return true;
}

}  // namespace obs
}  // namespace trmma
