#ifndef SURVEYOR_OBS_HTTP_SERVER_H_
#define SURVEYOR_OBS_HTTP_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace surveyor {
namespace obs {

/// One materialized HTTP response. `headers` carries endpoint-specific
/// extras (Deprecation, Retry-After, Link) on top of the Content-Type /
/// Content-Length / Connection headers the transport always writes.
struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
  std::vector<std::pair<std::string, std::string>> headers;
};

/// Application request handler. `target` is the full request target
/// (path + query string), `body` the request body ("" for GET); the views
/// live only for the call. A request whose route may block (see
/// HttpRouteBlocks) runs on the handler pool; every other request runs
/// inline on the event-loop worker that parsed it. Either way several
/// calls may run at once, so a handler must be thread-safe with respect
/// to the state it touches.
using HttpHandler = std::function<HttpResponse(
    std::string_view method, std::string_view target, std::string_view body)>;

/// Says whether the handler answering `target` may block: sleep, wait on
/// disk or on a lock held across slow work. Those requests are queued for
/// the handler pool; all others run inline on a worker thread, which
/// must never wait. Called on worker threads, so it must be thread-safe.
using HttpRouteBlocks = std::function<bool(std::string_view target)>;

/// Configuration of the epoll serving tier (DESIGN.md §15).
struct HttpServerOptions {
  /// TCP port to listen on; 0 picks an ephemeral port (port() reports the
  /// one actually bound).
  int port = 0;
  std::string bind_address = "127.0.0.1";
  /// Event-loop threads owning connections and doing all socket I/O
  /// (--serve-workers).
  int num_workers = 2;
  /// Threads executing blocking endpoints off the bounded request queue.
  /// A slow endpoint (/profilez holds a multi-second window open) blocks
  /// one of them, never an event loop. Inline requests never use them.
  int handler_threads = 4;
  /// Accepted-connection cap (--max-connections); connections over it are
  /// answered 503 and closed by the listener.
  size_t max_connections = 512;
  /// Admission control (--queue-high-water) for blocking endpoints: a
  /// request for one arriving while this many are already queued is shed
  /// with 429 + Retry-After instead of being enqueued. Inline requests
  /// are never queued, so they neither count toward it nor get shed.
  size_t queue_high_water = 128;
  /// Keep-alive connections idle longer than this are closed; a
  /// connection holding a partial request this long (slow loris) is
  /// answered 408 and closed. <= 0 disables the sweep.
  double idle_timeout_seconds = 30.0;
  /// Request head (request line + headers) larger than this is rejected
  /// with 431.
  size_t max_header_bytes = 8192;
  /// Request body larger than this is rejected with 413.
  size_t max_body_bytes = 1 << 20;
  /// Graceful-shutdown budget: Stop() waits up to this long for queued
  /// and executing pool requests to finish and flush before closing
  /// sockets.
  double drain_seconds = 5.0;
  /// Registry for the transport metrics (connection gauge, queue depth,
  /// shed count, ...). May be null: the server then keeps a private
  /// registry and the counters are simply not scrapeable.
  MetricRegistry* metrics = nullptr;
};

/// Dependency-free epoll-based multi-worker HTTP/1.1 server — the
/// serving tier under the admin plane and the /v1 query API:
///
///   - one listener thread doing edge-triggered accept and handing
///     connections to workers round-robin (503 over max_connections);
///   - N worker event loops, each owning its connections: incremental
///     request parsing, keep-alive with an idle-timeout sweep, bounded
///     write buffering with EPOLLOUT back-pressure, pipelined requests
///     answered in order;
///   - inline dispatch: a request whose route cannot block runs on the
///     worker that parsed it, with no thread handoff; its back-pressure
///     is one request in flight per connection plus the connection cap;
///   - a bounded request queue feeding a handler pool for routes that may
///     block, with admission control: past the high-water mark such
///     requests are shed with 429 + Retry-After (the connection stays
///     alive), so overload degrades into fast, explicit rejections
///     instead of collapse;
///   - graceful shutdown: Stop() stops accepting, drains queued and
///     in-flight requests, flushes responses, then closes.
///
/// Protocol errors are explicit, never hangs: oversized head 431,
/// oversized body 413, malformed request line 400, chunked encoding 501,
/// slow-loris partial request 408 at the idle timeout.
class HttpServer {
 public:
  /// `handler` answers every request; `route_blocks` picks, per request,
  /// the handler pool (true) or the worker thread (false). Both must stay
  /// valid until Stop().
  HttpServer(HttpHandler handler, HttpRouteBlocks route_blocks,
             HttpServerOptions options);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens, and starts the listener, worker, and handler
  /// threads. Fails with InvalidArgument/Internal when the socket cannot
  /// be bound; Unimplemented off Linux (no epoll).
  Status Start();

  /// Graceful shutdown; idempotent. See class comment.
  void Stop();

  /// The port actually bound (useful with options.port == 0); 0 before
  /// Start().
  int port() const { return port_; }

  /// Live connection count across all workers (the connection gauge).
  size_t open_connections() const {
    return connections_.load(std::memory_order_relaxed);
  }

  /// Blocking-route requests shed with 429 by admission control so far.
  int64_t shed_count() const;

 private:
  class Worker;
  struct PendingRequest {
    int worker_index = 0;
    uint64_t connection_id = 0;
    std::string method;
    std::string target;
    std::string body;
    bool keep_alive = true;
  };

  /// Bounded MPMC queue between workers (producers) and the handler pool
  /// (consumers). TryPush refuses — admission control — at the
  /// high-water mark; Pop blocks and drains remaining items after
  /// Shutdown() before returning false.
  class RequestQueue {
   public:
    RequestQueue(size_t high_water, Gauge* depth_gauge)
        : high_water_(high_water), depth_gauge_(depth_gauge) {}

    bool TryPush(PendingRequest&& request);
    bool Pop(PendingRequest* out);
    void Shutdown();

   private:
    const size_t high_water_;
    Gauge* const depth_gauge_;
    Mutex mutex_;
    std::condition_variable_any cv_;
    std::deque<PendingRequest> queue_ SURVEYOR_GUARDED_BY(mutex_);
    bool shutdown_ SURVEYOR_GUARDED_BY(mutex_) = false;
  };

  void ListenerLoop();
  void HandlerLoop();
  /// Drops the open-connection count and gauge by one (a connection
  /// closed or was refused at the cap).
  void ReleaseConnection();

  HttpHandler handler_;
  HttpRouteBlocks route_blocks_;
  HttpServerOptions options_;
  /// Owned fallback when options_.metrics is null.
  std::unique_ptr<MetricRegistry> owned_metrics_;
  MetricRegistry* metrics_ = nullptr;

  Counter* accepted_total_ = nullptr;
  Counter* rejected_connections_total_ = nullptr;
  Counter* requests_total_ = nullptr;
  Counter* shed_total_ = nullptr;
  Counter* parse_errors_total_ = nullptr;
  Counter* idle_timeouts_total_ = nullptr;
  Gauge* connections_gauge_ = nullptr;
  Gauge* queue_depth_gauge_ = nullptr;

  std::unique_ptr<RequestQueue> queue_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> handler_pool_;
  std::thread listener_thread_;

  int listen_fd_ = -1;
  int listener_wake_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> draining_{false};
  /// Pool requests admitted to the queue or executing, not yet handed
  /// back to their worker — what Stop() waits on.
  std::atomic<int64_t> inflight_{0};
  std::atomic<size_t> connections_{0};
  std::atomic<size_t> next_worker_{0};

  friend class Worker;
};

}  // namespace obs
}  // namespace surveyor

#endif  // SURVEYOR_OBS_HTTP_SERVER_H_
