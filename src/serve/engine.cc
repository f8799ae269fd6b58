#include "serve/engine.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/fault_points.h"
#include "common/logging.h"
#include "obs/flight_recorder.h"
#include "obs/json_parse.h"
#include "obs/metrics.h"
#include "obs/postmortem.h"
#include "obs/slo.h"
#include "obs/stack_walk.h"
#include "obs/stall_watchdog.h"
#include "obs/trace.h"
#include "robust/fault_injection.h"

namespace trmma {
namespace serve {
namespace {

int EnvInt(const char* name, int fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  if (end == env || *end != '\0') {
    TRMMA_LOG(Warning) << name << ": ignoring malformed value '" << env << "'";
    return fallback;
  }
  return static_cast<int>(v);
}

double EnvDouble(const char* name, double fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  const double v = std::strtod(env, &end);
  if (end == env || *end != '\0' || !std::isfinite(v)) {
    TRMMA_LOG(Warning) << name << ": ignoring malformed value '" << env << "'";
    return fallback;
  }
  return v;
}

/// Pulls the serve-latency objective out of the TRMMA_SLO_FILE document so
/// p99 shedding uses the same threshold the watchdog enforces.
double SloServeP99Us() {
  const char* path = std::getenv("TRMMA_SLO_FILE");
  if (path == nullptr || *path == '\0') return 0.0;
  std::ifstream in(path);
  if (!in) return 0.0;
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto doc = obs::ParseJson(buffer.str());
  if (!doc.ok()) return 0.0;
  auto objectives = obs::ParseSloObjectives(doc.value());
  if (!objectives.ok()) return 0.0;
  for (const obs::SloObjective& o : objectives.value()) {
    if (o.kind == obs::SloObjective::Kind::kHistogram &&
        o.metric == "serve.latency.us") {
      return o.max;
    }
  }
  return 0.0;
}

void Count(const std::string& name, const obs::Labels& labels = {},
           int64_t delta = 1) {
  if (!obs::MetricsEnabled()) return;
  obs::MetricRegistry::Global().GetCounter(name, labels)->Increment(delta);
}

void SetGauge(const std::string& name, double value,
              const obs::Labels& labels = {}) {
  if (!obs::MetricsEnabled()) return;
  obs::MetricRegistry::Global().GetGauge(name, labels)->Set(value);
}

/// Synthetic request lane for a request's root + queue_wait spans: a small
/// fixed set of lanes (exported as pid 2 in the Chrome trace) keeps
/// concurrent requests readable without one lane per request.
int RequestLane(uint64_t id) { return 1 + static_cast<int>(id % 8); }

bool TracingEnabled() {
  return obs::CurrentTraceMode() == obs::TraceMode::kTrace;
}

}  // namespace

const char* RequestKindName(RequestKind kind) {
  return kind == RequestKind::kMatch ? "match" : "recover";
}

const char* OutcomeName(Outcome outcome) {
  switch (outcome) {
    case Outcome::kSuccess: return "success";
    case Outcome::kDegraded: return "degraded";
    case Outcome::kShed: return "shed";
    case Outcome::kTimeout: return "timeout";
  }
  return "unknown";
}

ServeConfig ServeConfig::FromEnv() {
  ServeConfig config;
  config.threads = EnvInt("TRMMA_SERVE_THREADS", config.threads);
  config.queue_cap = EnvInt("TRMMA_QUEUE_CAP", config.queue_cap);
  config.deadline_ms = EnvDouble("TRMMA_DEADLINE_MS", config.deadline_ms);
  config.shed_p99_us = SloServeP99Us();
  return config;
}

ServeEngine::ServeEngine(const ServeConfig& config, WorkerFactory factory)
    : config_(config), factory_(std::move(factory)),
      faults_(config.faults != nullptr ? config.faults
                                       : &FaultInjector::Global()),
      match_breaker_("match", config.breaker),
      recover_breaker_("recover", config.breaker),
      jitter_rng_(config.seed), latency_ring_(256, 0.0) {}

ServeEngine::~ServeEngine() { Stop(); }

void ServeEngine::PreRegisterMetrics() {
  if (!obs::MetricsEnabled()) return;
  obs::MetricRegistry& reg = obs::MetricRegistry::Global();
  for (const char* cls : {"match", "recover"}) {
    reg.GetCounter("serve.requests.total", {{"class", cls}});
    reg.GetHistogram("serve.latency.us", {{"class", cls}});
    reg.GetGauge("serve.breaker.state", {{"class", cls}})->Set(0.0);
  }
  for (const char* outcome : {"success", "degraded", "shed", "timeout"}) {
    reg.GetCounter("serve.outcome.total", {{"outcome", outcome}});
  }
  for (const char* reason : {"queue_full", "breaker_open", "slo_pressure",
                             "shutdown", "retry_queue_full"}) {
    reg.GetCounter("serve.shed.total", {{"reason", reason}});
  }
  reg.GetCounter("serve.retry.total");
  reg.GetCounter("serve.hedge.launched");
  reg.GetCounter("serve.hedge.won");
  reg.GetCounter("serve.deadline.expired.total");
  reg.GetGauge("serve.queue.depth")->Set(0.0);
  reg.GetGauge("serve.queue.depth_peak")->Set(0.0);
  reg.GetHistogram("serve.queue.wait.us");
}

Status ServeEngine::Start() {
  if (config_.threads <= 0) {
    return Status::InvalidArgument("serve threads must be positive");
  }
  if (config_.queue_cap <= 0) {
    return Status::InvalidArgument("serve queue_cap must be positive");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (started_) return Status::FailedPrecondition("engine already started");
  }
  // Worker contexts are built here, on the caller's thread, so the factory
  // needn't be thread-safe and the caller may release staging resources
  // (e.g. temp weight snapshots) as soon as Start returns.
  workers_.clear();
  workers_.reserve(static_cast<size_t>(config_.threads));
  for (int i = 0; i < config_.threads; ++i) {
    std::unique_ptr<Worker> worker = factory_(i);
    if (worker == nullptr) {
      workers_.clear();
      return Status::Internal("worker factory returned null for worker " +
                              std::to_string(i));
    }
    workers_.push_back(std::move(worker));
  }
  PreRegisterMetrics();
  {
    std::lock_guard<std::mutex> lock(mu_);
    started_ = true;
    stopping_ = false;
    draining_ = false;
  }
  {
    std::lock_guard<std::mutex> lock(timer_mu_);
    timer_stopping_ = false;
  }
  timer_thread_ = std::thread(&ServeEngine::TimerLoop, this);
  threads_.reserve(static_cast<size_t>(config_.threads));
  for (int i = 0; i < config_.threads; ++i) {
    threads_.emplace_back(&ServeEngine::WorkerLoop, this, i);
  }
  // Environment-gated postmortem hooks (both no-ops when unset): the stall
  // watchdog scanning this engine's in-flight requests, and the crash
  // handler so a faulting worker leaves a report with those requests in it.
  obs::StallWatchdog::Global().StartFromEnv();
  obs::InstallCrashHandlerFromEnv();
  return Status::OK();
}

void ServeEngine::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
    stopping_ = true;  // admission sheds from here on
  }
  cv_.notify_all();
  // Join the timer first: it drains every pending retry/hedge closure
  // (each re-checks engine state and finalizes-as-shed when it can't
  // re-enqueue), so no request is left waiting on a timer that never fires.
  {
    std::lock_guard<std::mutex> lock(timer_mu_);
    timer_stopping_ = true;
  }
  timer_cv_.notify_all();
  if (timer_thread_.joinable()) timer_thread_.join();
  // Workers drain the queue by execution — every queued future resolves.
  {
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
  {
    std::lock_guard<std::mutex> lock(mu_);
    started_ = false;
  }
}

std::future<ServeResponse> ServeEngine::Submit(ServeRequest request) {
  const Clock::time_point now = Clock::now();
  const RequestKind kind = request.kind;
  auto req = std::make_shared<RequestState>();
  req->request = std::move(request);
  req->submitted_at = now;
  std::future<ServeResponse> future = req->promise.get_future();

  {
    std::lock_guard<std::mutex> lock(mu_);
    req->id = next_id_++;
    ++stats_.submitted;
  }
  // Trace identity is captured here, at admission: the trace id always (it
  // is the exemplar key even in kMetrics mode), the request-lane root span
  // seq only under full tracing, reserved up front so attempt spans on
  // worker threads can link to the root before it completes.
  req->trace_id = obs::NewTraceId();
  req->submit_us = obs::NowMicros();
  if (TracingEnabled()) {
    req->root_seq = obs::TraceRing::Global().AllocSeq();
  }
  Count("serve.requests.total", {{"class", RequestKindName(kind)}});

  // Admission, cheapest check first. The breaker goes last so a half-open
  // probe slot is only consumed by a request that will actually run.
  std::string reason;
  double retry_after_ms = config_.backoff_max_ms;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || stopping_) {
      reason = "shutdown";
    } else if (static_cast<int>(queue_.size()) >= config_.queue_cap) {
      reason = "queue_full";
    }
  }
  if (reason.empty() && config_.shed_p99_us > 0.0 &&
      queue_depth() >= config_.shed_p99_min_depth &&
      ObservedP99Us() > config_.shed_p99_us) {
    reason = "slo_pressure";
  }
  if (reason.empty() && !breaker(kind).Admit(now, &retry_after_ms)) {
    reason = "breaker_open";
  }
  if (!reason.empty()) {
    FinalizeShed(req, reason, retry_after_ms);
    return future;
  }

  // The deadline starts at admission, so queue wait burns request budget.
  req->deadline = config_.deadline_ms > 0.0
                      ? Deadline::AfterMillis(config_.deadline_ms)
                      : Deadline::Unbounded();
  // Admitted: visible to crash reports and the stall watchdog until
  // Finalize releases the slot (-1 when the registry is off or full).
  req->inflight_token = obs::InflightRegistry::Global().Register(
      req->trace_id, RequestKindName(kind), config_.deadline_ms);
  if (!TryEnqueue(Task{req, false})) {
    // Lost the race with a concurrent enqueue or shutdown.
    FinalizeShed(req, "queue_full", retry_after_ms);
    return future;
  }
  if (config_.hedge_after_ms > 0.0) {
    ScheduleAt(
        now + std::chrono::microseconds(
                  static_cast<int64_t>(config_.hedge_after_ms * 1000.0)),
        [this, req] {
          if (req->done.load(std::memory_order_acquire)) return;
          bool launched = false;
          {
            std::lock_guard<std::mutex> lock(mu_);
            if (!stopping_ &&
                static_cast<int>(queue_.size()) < config_.queue_cap) {
              queue_.push_back(Task{req, true});
              launched = true;
              ++stats_.hedges_launched;
              stats_.peak_queue_depth =
                  std::max(stats_.peak_queue_depth,
                           static_cast<int64_t>(queue_.size()));
            }
          }
          if (launched) {
            Count("serve.hedge.launched");
            cv_.notify_one();
          }
          // No capacity for a hedge: the primary attempt still owns the
          // request, nothing to finalize.
        });
  }
  return future;
}

ServeResponse ServeEngine::SubmitAndWait(ServeRequest request) {
  return Submit(std::move(request)).get();
}

bool ServeEngine::TryEnqueue(Task task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ || static_cast<int>(queue_.size()) >= config_.queue_cap) {
      return false;
    }
    queue_.push_back(std::move(task));
    stats_.peak_queue_depth = std::max(
        stats_.peak_queue_depth, static_cast<int64_t>(queue_.size()));
    SetGauge("serve.queue.depth", static_cast<double>(queue_.size()));
    SetGauge("serve.queue.depth_peak",
             static_cast<double>(stats_.peak_queue_depth));
  }
  cv_.notify_one();
  return true;
}

void ServeEngine::WorkerLoop(int index) {
  // Registered so all-thread stack dumps (SIGUSR2 rendezvous, crash
  // reports, the watchdog's stuck-worker dumps) can see this thread.
  obs::ScopedThreadRegistration registration("serve.worker");
  Worker* worker = workers_[static_cast<size_t>(index)].get();
  while (true) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return !queue_.empty() || draining_; });
      if (queue_.empty()) return;  // draining and nothing left
      task = std::move(queue_.front());
      queue_.pop_front();
      SetGauge("serve.queue.depth", static_cast<double>(queue_.size()));
    }
    Execute(task, worker);
  }
}

void ServeEngine::Execute(const Task& task, Worker* worker) {
  const std::shared_ptr<RequestState>& req = task.req;
  if (req->done.load(std::memory_order_acquire)) return;  // twin finished
  const RequestKind kind = req->request.kind;
  const Clock::time_point start = Clock::now();
  // Re-install the request's trace identity on this worker thread: every
  // span opened below (attempt, execute, stitch/decode) joins the request
  // trace and links causally back to the request-lane root span, and every
  // RequestScope flight record picks up the trace id.
  obs::ScopedTraceContext trace_ctx(req->trace_id, req->root_seq);
  if (obs::MetricsEnabled()) {
    obs::MetricRegistry::Global()
        .GetHistogram("serve.queue.wait.us")
        ->Observe(std::chrono::duration<double, std::micro>(
                      start - req->submitted_at)
                      .count(),
                  req->trace_id);
  }
  if (req->root_seq >= 0 && !task.hedge && TracingEnabled()) {
    // The queue-wait child lives on the request lane (admission to first
    // pickup), nested inside the root by start order and time containment.
    // Hedge pickups skip it: their wait started at hedge launch, which the
    // attempt span on the worker lane already shows.
    obs::SpanRecord qw;
    qw.name = "serve.queue_wait";
    qw.seq = obs::TraceRing::Global().AllocSeq();
    qw.parent_seq = req->root_seq;
    qw.depth = 1;
    qw.tid = obs::ThreadTraceId();
    qw.lane = RequestLane(req->id);
    qw.trace_id = req->trace_id;
    qw.start_us = req->submit_us;
    qw.duration_us = obs::NowMicros() - req->submit_us;
    obs::TraceRing::Global().Record(qw);
  }

  // Expired while queued: return a timeout instead of burning the worker,
  // and capture the request in the flight recorder for postmortem replay.
  if (req->deadline.bounded() && req->deadline.Expired()) {
    {
      TRMMA_SPAN("serve.deadline_expired");
      obs::RequestScope scope("serve.timeout");
      if (obs::RequestRecord* rec = scope.record()) {
        rec->method = RequestKindName(kind);
        rec->outcome = "failed";
        rec->error = "deadline expired in queue";
        rec->input.reserve(req->request.traj.points.size());
        for (const GpsPoint& p : req->request.traj.points) {
          rec->input.push_back({p.pos.lat, p.pos.lng, p.t});
        }
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.deadline_expired;
    }
    Count("serve.deadline.expired.total");
    ServeResponse resp;
    resp.outcome = Outcome::kTimeout;
    resp.status =
        Status::FailedPrecondition("deadline expired before execution");
    Finalize(req, std::move(resp), task.hedge);
    return;
  }

  const int attempt = req->attempts.fetch_add(1, std::memory_order_relaxed) + 1;

  // Attempt span on the worker lane: a thread-root span, so it picks up the
  // installed context — same trace id as the request, its own span id (seq),
  // and a flow link back to the request-lane root. Retries and hedges each
  // open their own attempt span under the same trace.
  TRMMA_SPAN("serve.attempt");

  // Chaos input corruption is a pure function of (config, request id):
  // retries and hedges of one request re-read the identical corrupted
  // input, never an interleaving-dependent stream.
  Trajectory input = req->request.traj;
  if (faults_->enabled()) {
    faults_->CorruptTrajectorySeeded(&input, req->id);
  }

  obs::InflightRegistry::Global().MarkExecuting(req->inflight_token);
  // Crash-drill hook (common/fault_points.h): lets the crash-smoke harness
  // fault a real worker mid-request so the postmortem shows a genuine
  // serving stack plus the in-flight requests around it.
  if (FaultPointTriggered("serve.worker.crash")) {
    volatile int* fault = nullptr;
    *fault = 1;
  }

  ServeResponse resp;
  Status status;
  bool pipeline_degraded = false;
  {
    TRMMA_SPAN("serve.execute");
    obs::RequestScope scope(kind == RequestKind::kMatch ? "serve.match"
                                                        : "serve.recover");
    DeadlineScope deadline_scope(req->deadline, &req->done);
    if (kind == RequestKind::kMatch) {
      status = worker->Match(input, &resp.match);
    } else {
      status = worker->Recover(input, req->request.epsilon, &resp.recovered,
                               &pipeline_degraded);
    }
    resp.deadline_degraded = DeadlineDegradationNoted();
    if (obs::RequestRecord* rec = scope.record()) {
      rec->method = RequestKindName(kind);
      rec->outcome = !status.ok()
                         ? "failed"
                         : (resp.deadline_degraded || pipeline_degraded
                                ? "degraded"
                                : "ok");
      if (!status.ok()) rec->error = status.message();
    }
  }
  resp.pipeline_degraded = pipeline_degraded;
  resp.status = status;

  if (status.ok()) {
    resp.outcome = resp.deadline_degraded || pipeline_degraded
                       ? Outcome::kDegraded
                       : Outcome::kSuccess;
    Finalize(req, std::move(resp), task.hedge);
    return;
  }

  // Transient failures get bounded retries with jittered backoff, as long
  // as the deadline still has budget and no twin already answered.
  const bool transient = status.code() == StatusCode::kIOError ||
                         status.code() == StatusCode::kInternal;
  const bool expired = req->deadline.bounded() && req->deadline.Expired();
  if (transient && !expired && attempt <= config_.max_retries &&
      !req->done.load(std::memory_order_acquire)) {
    const double backoff_ms = JitteredBackoffMs(attempt);
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.retries;
    }
    Count("serve.retry.total");
    const bool hedge = task.hedge;
    ScheduleAt(
        Clock::now() + std::chrono::microseconds(
                           static_cast<int64_t>(backoff_ms * 1000.0)),
        [this, req, hedge] {
          if (req->done.load(std::memory_order_acquire)) return;
          if (!TryEnqueue(Task{req, hedge})) {
            FinalizeShed(req, "retry_queue_full", config_.backoff_max_ms);
          }
        });
    return;  // the scheduled retry owns the request now
  }

  // Terminal failure: degraded answers beat no answers — classify as
  // degraded with an empty payload and the Status attached, keeping the
  // four-way accounting exact.
  resp.match = MatchOutput{};
  resp.recovered.clear();
  resp.outcome = Outcome::kDegraded;
  Finalize(req, std::move(resp), task.hedge);
}

void ServeEngine::Finalize(const std::shared_ptr<RequestState>& req,
                           ServeResponse&& response, bool from_hedge) {
  if (req->done.exchange(true, std::memory_order_acq_rel)) {
    return;  // the twin attempt already answered
  }
  obs::InflightRegistry::Global().Release(req->inflight_token);
  const Clock::time_point now = Clock::now();
  const RequestKind kind = req->request.kind;
  response.id = req->id;
  response.trace_id = req->trace_id;
  response.attempts = req->attempts.load(std::memory_order_relaxed);
  response.hedge_won = from_hedge;
  response.latency_us =
      std::chrono::duration<double, std::micro>(now - req->submitted_at)
          .count();

  const bool executed = response.outcome != Outcome::kShed;
  if (executed) {
    {
      std::lock_guard<std::mutex> lock(latency_mu_);
      latency_ring_[latency_pos_] = response.latency_us;
      latency_pos_ = (latency_pos_ + 1) % latency_ring_.size();
      latency_count_ = std::min(latency_count_ + 1, latency_ring_.size());
    }
    if (obs::MetricsEnabled()) {
      // The exemplar ties the latency histogram's tail quantile back to
      // this request's trace (/metrics ` # {trace_id=...}` annotation).
      obs::MetricRegistry::Global()
          .GetHistogram("serve.latency.us",
                        {{"class", RequestKindName(kind)}})
          ->Observe(response.latency_us, req->trace_id);
    }
    // Breaker feedback: a timeout or terminal error is a failure; a
    // degraded-but-delivered answer is a success (the class is healthy,
    // the budget was just tight).
    if (response.outcome == Outcome::kTimeout || !response.status.ok()) {
      breaker(kind).RecordFailure(now);
    } else {
      breaker(kind).RecordSuccess(now);
    }
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    switch (response.outcome) {
      case Outcome::kSuccess: ++stats_.success; break;
      case Outcome::kDegraded: ++stats_.degraded; break;
      case Outcome::kShed: ++stats_.shed; break;
      case Outcome::kTimeout: ++stats_.timeout; break;
    }
    if (from_hedge) ++stats_.hedge_wins;
  }
  CountOutcome(kind, response.outcome);
  if (from_hedge) Count("serve.hedge.won");

  // Close the request-lane root span (admission to finalize). Its seq was
  // reserved at admission, so the attempt spans' flow links resolve even
  // though the root is recorded last.
  if (req->root_seq >= 0 && TracingEnabled()) {
    obs::SpanRecord root;
    root.name = "serve.request";
    root.seq = req->root_seq;
    root.parent_seq = -1;
    root.depth = 0;
    root.tid = obs::ThreadTraceId();
    root.lane = RequestLane(req->id);
    root.trace_id = req->trace_id;
    root.start_us = req->submit_us;
    root.duration_us = obs::NowMicros() - req->submit_us;
    obs::TraceRing::Global().Record(root);
  }
  req->promise.set_value(std::move(response));
}

void ServeEngine::FinalizeShed(const std::shared_ptr<RequestState>& req,
                               const std::string& reason,
                               double retry_after_ms) {
  CountShed(reason);
  Finalize(req, ShedResponse(req->request, reason, retry_after_ms), false);
}

ServeResponse ServeEngine::ShedResponse(const ServeRequest& request,
                                        const std::string& reason,
                                        double retry_after_ms) {
  (void)request;
  ServeResponse resp;
  resp.outcome = Outcome::kShed;
  resp.shed_reason = reason;
  resp.retry_after_ms = retry_after_ms;
  resp.status = Status::FailedPrecondition("request shed: " + reason);
  return resp;
}

void ServeEngine::CountShed(const std::string& reason) {
  Count("serve.shed.total", {{"reason", reason}});
}

void ServeEngine::CountOutcome(RequestKind kind, Outcome outcome) {
  (void)kind;
  Count("serve.outcome.total", {{"outcome", OutcomeName(outcome)}});
}

double ServeEngine::JitteredBackoffMs(int attempt) {
  double base = config_.backoff_base_ms;
  for (int i = 1; i < attempt; ++i) base *= 2.0;
  base = std::min(base, config_.backoff_max_ms);
  std::lock_guard<std::mutex> lock(jitter_mu_);
  return base * (0.5 + 0.5 * jitter_rng_.Uniform());
}

void ServeEngine::ScheduleAt(Clock::time_point at, std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(timer_mu_);
    if (!timer_stopping_) {
      timers_.push(TimerEntry{at, timer_seq_++, std::move(fn)});
      timer_cv_.notify_one();
      return;
    }
  }
  // Timer already gone (shutdown): run inline — the closure re-checks
  // engine state and finalizes instead of enqueueing.
  fn();
}

void ServeEngine::TimerLoop() {
  obs::ScopedThreadRegistration registration("serve.timer");
  std::unique_lock<std::mutex> lock(timer_mu_);
  while (!timer_stopping_) {
    if (timers_.empty()) {
      timer_cv_.wait(lock,
                     [&] { return timer_stopping_ || !timers_.empty(); });
      continue;
    }
    const Clock::time_point at = timers_.top().at;
    if (Clock::now() < at) {
      timer_cv_.wait_until(lock, at);
      continue;
    }
    std::function<void()> fn =
        std::move(const_cast<TimerEntry&>(timers_.top()).fn);
    timers_.pop();
    lock.unlock();
    fn();
    lock.lock();
  }
  // Shutdown drain: fire everything now so no pending retry or hedge
  // leaves a future unresolved. Closures observe stopping_ and finalize.
  while (!timers_.empty()) {
    std::function<void()> fn =
        std::move(const_cast<TimerEntry&>(timers_.top()).fn);
    timers_.pop();
    lock.unlock();
    fn();
    lock.lock();
  }
}

ServeStats ServeEngine::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

int ServeEngine::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(queue_.size());
}

BreakerState ServeEngine::breaker_state(RequestKind kind) const {
  return kind == RequestKind::kMatch ? match_breaker_.state()
                                     : recover_breaker_.state();
}

double ServeEngine::ObservedP99Us() const {
  std::vector<double> sample;
  {
    std::lock_guard<std::mutex> lock(latency_mu_);
    if (latency_count_ < 32) return 0.0;
    sample.assign(latency_ring_.begin(),
                  latency_ring_.begin() +
                      static_cast<std::ptrdiff_t>(latency_count_));
  }
  const size_t rank =
      static_cast<size_t>(0.99 * static_cast<double>(sample.size() - 1));
  std::nth_element(sample.begin(),
                   sample.begin() + static_cast<std::ptrdiff_t>(rank),
                   sample.end());
  return sample[rank];
}

}  // namespace serve
}  // namespace trmma
