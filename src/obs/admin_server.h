#ifndef SURVEYOR_OBS_ADMIN_SERVER_H_
#define SURVEYOR_OBS_ADMIN_SERVER_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/access_log.h"
#include "obs/http_server.h"
#include "obs/log_ring.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "obs/stage.h"
#include "util/status.h"

namespace surveyor {
namespace obs {

class JsonWriter;

/// Configuration of the embedded admin HTTP server.
struct AdminServerOptions {
  /// TCP port to listen on; 0 picks an ephemeral port (port() reports the
  /// one actually bound — used by tests).
  int port = 0;
  /// Admin planes are debugging surfaces, not public APIs: bind loopback
  /// only unless the operator explicitly opens it up.
  std::string bind_address = "127.0.0.1";
  /// Maximum log lines /logz returns (newest kept).
  size_t max_log_lines = 100;
  /// Head-sampling rate in [0, 1] for request traces (--trace-sample-rate).
  double trace_sample_rate = 0.01;
  /// Requests slower than this are trace-captured regardless of sampling
  /// (--slow-query-ms); <= 0 disables tail capture.
  double slow_query_ms = 250.0;
  /// Retained traces the /tracez ring holds.
  size_t trace_ring_capacity = 64;
  /// Entries the /requestz access-log ring holds; 0 disables the access
  /// log (no entries, no per-endpoint counters).
  size_t access_log_capacity = 512;
  /// Registry the profiler folds its sample counters into after a
  /// /profilez window (not owned, may be null). Usually the same live
  /// registry the server scrapes, but the server's own `registry` is
  /// const, so a writable alias is injected explicitly. The serving
  /// tier's transport metrics (connection gauge, queue depth, shed
  /// count) land in the same registry.
  MetricRegistry* profiler_metrics = nullptr;
  /// Event-loop threads in the underlying HttpServer (--serve-workers);
  /// they also run every inline endpoint.
  int serve_workers = 2;
  /// Handler-pool threads executing blocking endpoints (see HandlerKind).
  int handler_threads = 4;
  /// Open-connection cap (--max-connections); excess connections are
  /// answered 503 and closed.
  size_t max_connections = 512;
  /// Admission control (--queue-high-water) for blocking endpoints:
  /// requests for one arriving past this queue depth are shed with 429 +
  /// Retry-After. Inline endpoints are never queued or shed.
  size_t queue_high_water = 128;
  /// Keep-alive connections idle longer than this are closed (partial
  /// requests get 408); <= 0 disables the sweep.
  double idle_timeout_seconds = 30.0;
  /// Graceful-shutdown budget for draining in-flight requests.
  double drain_seconds = 5.0;
};

/// One materialized HTTP response, exposed so tests can exercise the
/// endpoint logic without a socket. An alias for the transport's
/// HttpResponse so handlers can attach extra headers (Deprecation,
/// Retry-After) that the event loop writes verbatim.
using AdminResponse = HttpResponse;

/// An application endpoint mounted on the admin server (see AddHandler).
/// `target` is the full request target (path + query string), `body` the
/// request body ("" for GET). An inline handler runs on the event-loop
/// worker that parsed the request; a blocking one runs on the handler
/// pool. Several may execute concurrently, so handlers must be
/// thread-safe with respect to the application state they read.
using AdminHandler = std::function<AdminResponse(
    std::string_view method, std::string_view target, std::string_view body)>;

/// Where a mounted handler runs (see AddHandler).
enum class HandlerKind {
  /// On the event-loop worker that parsed the request, with no thread
  /// handoff. For handlers that never wait: in-memory lookups, rendering.
  /// A slow inline handler stalls every connection of its worker.
  kInline,
  /// On the handler pool, behind the bounded queue and its 429 admission
  /// control. For handlers that may sleep, touch disk, or wait on a lock
  /// held across slow work.
  kBlocking,
};

/// One application section on /statusz (see AddStatusSection). The
/// function writes exactly one JSON value (usually an object) as the
/// section's content; it runs on a handler thread and must be
/// thread-safe with respect to the state it reads.
using StatusSection = std::function<void(JsonWriter&)>;

/// Runs at the start of every /metrics scrape (see AddMetricsHook) —
/// the place to refresh gauges whose value is a function of "now", like
/// the serving generation's age.
using MetricsHook = std::function<void()>;

/// Embedded HTTP/1.1 admin and serving plane, mounted on the epoll
/// multi-worker HttpServer (DESIGN.md §15): the live observability
/// state of this process plus the /v1 query API — the laptop-scale
/// version of the per-node status pages the deployed Surveyor
/// aggregated across 5000 machines, in the pull-based exposition style
/// modern pipelines scrape.
///
/// Endpoints:
///   /metrics       Prometheus text: the registry + log counters
///   /metrics.json  the registry as JSON
///   /healthz       liveness — 200 whenever the process can answer
///   /readyz        readiness — 200 once the stage machine reaches
///                  serving/done, 503 (with the stage name) before
///   /statusz       JSON snapshot: stage, stage seconds, uptime, live
///                  span stack per thread, log counters
///   /logz          recent log lines from the LogRing
///   /tracez        retained request traces as span trees (?format=text)
///   /requestz      recent access-log entries (?slowest=N)
///   /profilez      on-demand CPU profile: samples the process for
///                  ?seconds=N (default 1, max 30) and answers folded
///                  stacks (?format=folded, flamegraph.pl-ready) or JSON
///                  with the per-stage attribution table (?format=json).
///                  One profile at a time (409 while one runs); 501 on
///                  sanitizer builds. Runs on the handler pool and blocks
///                  one of its threads for the window — other endpoints
///                  keep answering.
///
/// Every request runs under an obs::RequestScope: it gets a trace id,
/// lands in the access log (feeding the per-endpoint counters on
/// /metrics), and — when head-sampled or over the slow-query threshold —
/// leaves its span tree on /tracez.
///
/// Requests arrive concurrently: the event loops parse them off
/// keep-alive connections and run inline endpoints (every builtin but
/// /profilez, and handlers mounted as HandlerKind::kInline) on the spot,
/// while a handler pool executes blocking ones, so every handler (and
/// status section) must be thread-safe, and nothing but a blocking
/// handler may wait. Overload is explicit — past the queue high-water
/// mark blocking requests are shed with 429 before any endpoint code runs
/// (see HttpServerOptions).
class AdminServer {
 public:
  /// None of the dependencies are owned; all must outlive the server.
  /// `stage` and `log_ring` may be null (readyz then reports 200 "ok" and
  /// /logz is empty).
  AdminServer(const MetricRegistry* registry, const StageTracker* stage,
              const LogRing* log_ring, AdminServerOptions options = {});

  /// Stops the server if still running.
  ~AdminServer();

  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  /// Binds, listens and starts the serving tier (listener, worker event
  /// loops, handler pool). Fails with InvalidArgument/Internal when the
  /// port cannot be bound.
  Status Start();

  /// Graceful shutdown: stops accepting, drains in-flight requests (up
  /// to options.drain_seconds), flushes responses, closes. Idempotent.
  void Stop();

  /// The port actually bound (useful with options.port == 0); 0 before
  /// Start().
  int port() const { return port_; }

  /// Mounts `handler` on every path equal to `prefix` or under it
  /// ("/v1/query" also matches "/v1/query/batch"). Longest registered prefix
  /// wins; registered paths shadow the builtins. Handlers decide their
  /// own method policy (this is how POST endpoints exist on an otherwise
  /// GET-only plane). `kind` says where the handler runs: inline on the
  /// event loop unless it may block. Must be called before Start(); not
  /// thread-safe against a running server.
  void AddHandler(std::string prefix, AdminHandler handler,
                  HandlerKind kind = HandlerKind::kInline);

  /// Appends an application-owned section to /statusz under `key`
  /// ("generation": {...}). Sections render in registration order, after
  /// the builtin fields. Must be called before Start().
  void AddStatusSection(std::string key, StatusSection section);

  /// Registers a hook invoked at the start of every /metrics and
  /// /metrics.json scrape, before the registry renders. Must be called
  /// before Start().
  void AddMetricsHook(MetricsHook hook);

  /// Pure request dispatch: `target` is the request path plus optional
  /// query string, `body` the request body. Exposed for tests.
  AdminResponse Handle(std::string_view method, std::string_view target,
                       std::string_view body) const;

  /// Body-less convenience overload (the shape every GET test uses).
  AdminResponse Handle(std::string_view method, std::string_view target) const {
    return Handle(method, target, "");
  }

  /// The tracer behind /tracez; exposed so tests and benches can inspect
  /// retained traces without scraping.
  RequestTracer& request_tracer() const { return request_tracer_; }

  /// The access log behind /requestz.
  AccessLog& access_log() const { return access_log_; }

 private:
  /// One registered application endpoint.
  struct Route {
    std::string prefix;
    AdminHandler handler;
    HandlerKind kind;
  };

  /// The registered route serving `path`, longest prefix first; nullptr
  /// when a builtin (or 404) answers it.
  const Route* FindRoute(std::string_view path) const;

  /// Whether the request for `target` goes to the handler pool: its route
  /// is blocking, or it is the builtin /profilez.
  bool RouteBlocks(std::string_view target) const;

  /// Handler/builtin dispatch, running inside `scope`; sets the scope's
  /// normalized endpoint for the per-endpoint counters.
  AdminResponse Dispatch(std::string_view method, std::string_view target,
                         std::string_view body, RequestScope* scope) const;

  AdminResponse MetricsText() const;
  AdminResponse MetricsJson() const;
  AdminResponse Healthz() const;
  AdminResponse Readyz() const;
  AdminResponse Statusz() const;
  AdminResponse Logz() const;
  AdminResponse Tracez(std::string_view target) const;
  AdminResponse Requestz(std::string_view target) const;
  AdminResponse Profilez(std::string_view target) const;
  AdminResponse Index() const;

  const MetricRegistry* registry_;
  const StageTracker* stage_;
  const LogRing* log_ring_;
  AdminServerOptions options_;
  /// Internally synchronized; mutable because Handle() is const yet every
  /// request appends to them.
  mutable RequestTracer request_tracer_;
  mutable AccessLog access_log_;
  /// Registered application endpoints. Immutable once the server starts.
  std::vector<Route> routes_;
  /// Application /statusz sections, (key, writer). Immutable once the
  /// server starts.
  std::vector<std::pair<std::string, StatusSection>> status_sections_;
  /// Scrape-time gauge refreshers. Immutable once the server starts.
  std::vector<MetricsHook> metrics_hooks_;

  /// The serving tier; non-null exactly while started.
  std::unique_ptr<HttpServer> http_;
  int port_ = 0;
};

}  // namespace obs
}  // namespace surveyor

#endif  // SURVEYOR_OBS_ADMIN_SERVER_H_
