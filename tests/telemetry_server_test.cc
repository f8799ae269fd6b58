#include "obs/telemetry_server.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <string>

#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/trace.h"

namespace trmma {
namespace obs {
namespace {

/// One raw HTTP/1.0 GET against 127.0.0.1:`port`; returns the full response
/// (status line + headers + body), empty on connect failure. Deliberately
/// not a real HTTP client — the server only has to satisfy curl-level
/// plumbing.
std::string HttpGet(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request =
      "GET " + path + " HTTP/1.0\r\nHost: localhost\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

class ServerGuard {
 public:
  ServerGuard() {
    const Status status = server_.Start(0);  // ephemeral port
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  ~ServerGuard() { server_.Stop(); }
  TelemetryServer& operator*() { return server_; }
  TelemetryServer* operator->() { return &server_; }

 private:
  TelemetryServer server_;
};

TEST(TelemetryServerTest, StartsOnEphemeralPortAndStopsCleanly) {
  TelemetryServer server;
  ASSERT_TRUE(server.Start(0).ok());
  EXPECT_TRUE(server.running());
  EXPECT_GT(server.port(), 0);
  server.Stop();
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.port(), 0);
  // Stop is idempotent, and the server restarts on a fresh port.
  server.Stop();
  ASSERT_TRUE(server.Start(0).ok());
  EXPECT_GT(server.port(), 0);
  server.Stop();
}

TEST(TelemetryServerTest, DoubleStartFails) {
  ServerGuard server;
  EXPECT_FALSE(server->Start(0).ok());
}

TEST(TelemetryServerTest, HealthzRespondsOk) {
  ServerGuard server;
  const std::string response = HttpGet(server->port(), "/healthz");
  EXPECT_NE(response.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(response.find("ok"), std::string::npos);
  EXPECT_GE(server->requests_served(), 1);
}

TEST(TelemetryServerTest, MetricsServesPrometheusExposition) {
  MetricRegistry::Global().GetCounter("telemetry.test.hits")->Increment(3);
  ServerGuard server;
  const std::string response = HttpGet(server->port(), "/metrics");
  EXPECT_NE(response.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(response.find("# TYPE telemetry_test_hits counter"),
            std::string::npos);
  EXPECT_NE(response.find("telemetry_test_hits 3"), std::string::npos);
  // Scrapes refresh the memory and lock gauges inline.
  EXPECT_NE(response.find("mem_rss_bytes"), std::string::npos);
  EXPECT_NE(response.find("lock_acquisitions"), std::string::npos);
  // Exposition body ends with a newline.
  ASSERT_FALSE(response.empty());
  EXPECT_EQ(response.back(), '\n');
}

TEST(TelemetryServerTest, StatuszReportsBuildAndRuntimeState) {
  ServerGuard server;
  const std::string response = HttpGet(server->port(), "/statusz");
  EXPECT_NE(response.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(response.find("\"uptime_us\":"), std::string::npos);
  EXPECT_NE(response.find("\"pid\":"), std::string::npos);
  EXPECT_NE(response.find("\"locks\":"), std::string::npos);
  EXPECT_NE(response.find("\"memory\":"), std::string::npos);
}

TEST(TelemetryServerTest, TracezGroupsSpansByTraceId) {
  const TraceMode saved = CurrentTraceMode();
  SetTraceMode(TraceMode::kTrace);
  TraceRing::Global().Clear();
  {
    // One span inside a request context, one free-floating.
    ScopedTraceContext ctx(0x2a, -1);
    TraceRing::Global().BeginSpan("tracez.test", 10.0);
    TraceRing::Global().EndSpan(35.0);
  }
  TraceRing::Global().BeginSpan("tracez.untraced", 40.0);
  TraceRing::Global().EndSpan(41.0);

  ServerGuard server;
  const std::string response = HttpGet(server->port(), "/tracez");
  SetTraceMode(saved);
  TraceRing::Global().Clear();

  EXPECT_NE(response.find("HTTP/1.0 200"), std::string::npos);
  // Grouped payload: the traced span lands in a per-request entry with its
  // name breakdown; the context-free span is only summarized in the count.
  EXPECT_NE(response.find("\"trace_count\":1"), std::string::npos);
  EXPECT_NE(response.find("\"untraced_spans\":1"), std::string::npos);
  EXPECT_NE(response.find("\"truncated\":false"), std::string::npos);
  EXPECT_NE(response.find("\"trace_id\":\"000000000000002a\""),
            std::string::npos);
  EXPECT_NE(response.find("\"name\":\"tracez.test\""), std::string::npos);
  EXPECT_EQ(response.find("\"name\":\"tracez.untraced\""), std::string::npos);
}

TEST(TelemetryServerTest, SloEndpointReflectsWatchdog) {
  ServerGuard server;
  const std::string response = HttpGet(server->port(), "/slo");
  EXPECT_NE(response.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(response.find("\"active\":"), std::string::npos);
}

TEST(TelemetryServerTest, UnknownPathIs404AndQueryStringsAreStripped) {
  ServerGuard server;
  const std::string missing = HttpGet(server->port(), "/nope");
  EXPECT_NE(missing.find("HTTP/1.0 404"), std::string::npos);
  EXPECT_NE(missing.find("  /pprof\n"), std::string::npos);
  const std::string perf = HttpGet(server->port(), "/perf");
  EXPECT_NE(perf.find("HTTP/1.0 404"), std::string::npos);
  EXPECT_EQ(perf.find("  /perf\n"), std::string::npos);
  const std::string with_query = HttpGet(server->port(), "/healthz?probe=1");
  EXPECT_NE(with_query.find("HTTP/1.0 200"), std::string::npos);
}

TEST(TelemetryServerTest, GarbageRequestDoesNotKillTheServer) {
  ServerGuard server;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server->port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const char garbage[] = "\x01\x02 not http at all\r\n\r\n";
  (void)::send(fd, garbage, sizeof(garbage) - 1, 0);
  char buf[512];
  while (::recv(fd, buf, sizeof(buf), 0) > 0) {
  }
  ::close(fd);
  // The server survives and keeps answering.
  const std::string response = HttpGet(server->port(), "/healthz");
  EXPECT_NE(response.find("HTTP/1.0 200"), std::string::npos);
}

TEST(TelemetryServerTest, QuitzHandshakeReleasesALingeringProcess) {
  ServerGuard server;
  EXPECT_FALSE(server->quit_requested());
  // Nothing has hit /quitz yet: a zero-budget wait times out as false.
  EXPECT_FALSE(server->WaitForQuit(0));
  const std::string response = HttpGet(server->port(), "/quitz");
  EXPECT_NE(response.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(response.find("bye"), std::string::npos);
  EXPECT_TRUE(server->quit_requested());
  // Already released: the wait returns immediately regardless of budget.
  EXPECT_TRUE(server->WaitForQuit(60000));
  // A restart clears the handshake.
  server->Stop();
  ASSERT_TRUE(server->Start(0).ok());
  EXPECT_FALSE(server->quit_requested());
  // WaitForQuit on a stopped server is a no-op success (nothing to hold).
  server->Stop();
  EXPECT_TRUE(server->WaitForQuit(60000));
}

}  // namespace
}  // namespace obs
}  // namespace trmma
