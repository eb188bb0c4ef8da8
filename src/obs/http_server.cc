#include "obs/http_server.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <system_error>
#include <unordered_map>

#if defined(__linux__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>
#define SURVEYOR_HAVE_EPOLL 1
#endif

#include "util/logging.h"

namespace surveyor {
namespace obs {

namespace {

using Clock = std::chrono::steady_clock;

std::string_view ReasonPhrase(int status) {
  switch (status) {
    case 200:
      return "200 OK";
    case 400:
      return "400 Bad Request";
    case 404:
      return "404 Not Found";
    case 405:
      return "405 Method Not Allowed";
    case 408:
      return "408 Request Timeout";
    case 409:
      return "409 Conflict";
    case 413:
      return "413 Payload Too Large";
    case 429:
      return "429 Too Many Requests";
    case 431:
      return "431 Request Header Fields Too Large";
    case 501:
      return "501 Not Implemented";
    case 503:
      return "503 Service Unavailable";
    default:
      return "500 Internal Server Error";
  }
}

/// Appends a handler response's wire bytes to `out`. HEAD keeps the
/// Content-Length of the body it suppresses (RFC 9110 §9.3.2).
void SerializeResponse(const HttpResponse& response, bool keep_alive,
                       bool head, std::string* out) {
  out->reserve(out->size() + response.body.size() + 160);
  *out += "HTTP/1.1 ";
  *out += ReasonPhrase(response.status);
  *out += "\r\nContent-Type: ";
  *out += response.content_type;
  *out += "\r\nContent-Length: ";
  *out += std::to_string(response.body.size());
  for (const auto& [name, value] : response.headers) {
    *out += "\r\n";
    *out += name;
    *out += ": ";
    *out += value;
  }
  *out += keep_alive ? "\r\nConnection: keep-alive\r\n\r\n"
                     : "\r\nConnection: close\r\n\r\n";
  if (!head) *out += response.body;
}

/// Wire bytes for a transport-level plain-text response (429 shed, 431
/// oversized head, 503 at capacity, ...), built without touching the
/// application handler.
std::string SimpleResponseBytes(int status, std::string_view body,
                                bool keep_alive,
                                std::string_view extra_header = {}) {
  HttpResponse response;
  response.status = status;
  response.body = std::string(body);
  if (!extra_header.empty()) {
    const size_t colon = extra_header.find(':');
    response.headers.emplace_back(
        std::string(extra_header.substr(0, colon)),
        std::string(extra_header.substr(colon + 2)));
  }
  std::string out;
  SerializeResponse(response, keep_alive, /*head=*/false, &out);
  return out;
}

char AsciiLower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (AsciiLower(a[i]) != AsciiLower(b[i])) return false;
  }
  return true;
}

bool ContainsToken(std::string_view header_value, std::string_view token) {
  // Connection/Expect values are comma-separated token lists; a substring
  // scan over lowercase copies is enough for the two tokens we care about.
  while (!header_value.empty()) {
    const size_t comma = header_value.find(',');
    std::string_view item = header_value.substr(0, comma);
    while (!item.empty() && (item.front() == ' ' || item.front() == '\t')) {
      item.remove_prefix(1);
    }
    while (!item.empty() && (item.back() == ' ' || item.back() == '\t')) {
      item.remove_suffix(1);
    }
    if (EqualsIgnoreCase(item, token)) return true;
    header_value = comma == std::string_view::npos
                       ? std::string_view()
                       : header_value.substr(comma + 1);
  }
  return false;
}

std::string_view TrimOws(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

enum class ParseOutcome { kNeedMore, kRequest, kError };

/// One parsed request. The views point into the connection's input
/// buffer and stay valid until its `consumed` bytes are erased.
struct ParsedRequest {
  std::string_view method;
  std::string_view target;
  std::string_view body;
  bool keep_alive = true;
  bool expect_continue = false;
  /// Head parsed fine, body still streaming in — drives 100-continue and
  /// lets the idle sweep distinguish "mid-request" from "between
  /// requests".
  bool head_complete = false;
  /// Bytes of the input buffer this request consumed (kRequest only).
  size_t consumed = 0;
  int error_status = 0;
  /// A string literal.
  std::string_view error_message;
};

ParseOutcome ParseError(ParsedRequest* out, int status,
                        std::string_view message) {
  out->error_status = status;
  out->error_message = message;
  return ParseOutcome::kError;
}

/// Incremental HTTP/1.x request parser over the connection's input
/// buffer. Never blocks: either a full request is buffered (kRequest,
/// with `consumed` to erase), more bytes are needed (kNeedMore), or the
/// bytes can never become a request (kError with a status to send
/// before closing).
ParseOutcome ParseOne(std::string_view in, size_t max_header_bytes,
                      size_t max_body_bytes, ParsedRequest* out) {
  // Find the end of the head; tolerate bare-LF line endings.
  size_t head_end = std::string_view::npos;
  size_t body_start = 0;
  const size_t crlf = in.find("\r\n\r\n");
  const size_t lf = in.find("\n\n");
  if (crlf != std::string_view::npos &&
      (lf == std::string_view::npos || crlf < lf)) {
    head_end = crlf;
    body_start = crlf + 4;
  } else if (lf != std::string_view::npos) {
    head_end = lf;
    body_start = lf + 2;
  }
  if (head_end == std::string_view::npos) {
    if (in.size() > max_header_bytes) {
      return ParseError(out, 431, "request head too large\n");
    }
    return ParseOutcome::kNeedMore;
  }
  if (body_start > max_header_bytes) {
    return ParseError(out, 431, "request head too large\n");
  }

  const std::string_view head = in.substr(0, head_end);
  const size_t line_end = head.find('\n');
  std::string_view request_line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);
  if (!request_line.empty() && request_line.back() == '\r') {
    request_line.remove_suffix(1);
  }
  const size_t method_end = request_line.find(' ');
  const size_t target_end =
      method_end == std::string_view::npos
          ? std::string_view::npos
          : request_line.find(' ', method_end + 1);
  if (method_end == std::string_view::npos ||
      target_end == std::string_view::npos || method_end == 0 ||
      target_end == method_end + 1) {
    return ParseError(out, 400, "malformed request line\n");
  }
  const std::string_view method = request_line.substr(0, method_end);
  const std::string_view target =
      request_line.substr(method_end + 1, target_end - method_end - 1);
  const std::string_view version = request_line.substr(target_end + 1);
  if (version.substr(0, 5) != "HTTP/") {
    return ParseError(out, 400, "malformed request line\n");
  }
  // HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close; the Connection
  // header overrides either way.
  bool keep_alive = version == "HTTP/1.1";

  size_t content_length = 0;
  bool expect_continue = false;
  std::string_view rest = line_end == std::string_view::npos
                              ? std::string_view()
                              : head.substr(line_end + 1);
  while (!rest.empty()) {
    const size_t eol = rest.find('\n');
    std::string_view line = rest.substr(0, eol);
    rest = eol == std::string_view::npos ? std::string_view()
                                         : rest.substr(eol + 1);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      return ParseError(out, 400, "malformed header line\n");
    }
    const std::string_view name = line.substr(0, colon);
    const std::string_view value = TrimOws(line.substr(colon + 1));
    if (EqualsIgnoreCase(name, "content-length")) {
      if (value.empty()) return ParseError(out, 400, "bad content-length\n");
      content_length = 0;
      for (const char c : value) {
        if (c < '0' || c > '9') {
          return ParseError(out, 400, "bad content-length\n");
        }
        if (content_length > (max_body_bytes + 9) / 10 * 10) {
          return ParseError(out, 413, "request body too large\n");
        }
        content_length = content_length * 10 + static_cast<size_t>(c - '0');
      }
      if (content_length > max_body_bytes) {
        return ParseError(out, 413, "request body too large\n");
      }
    } else if (EqualsIgnoreCase(name, "connection")) {
      if (ContainsToken(value, "close")) {
        keep_alive = false;
      } else if (ContainsToken(value, "keep-alive")) {
        keep_alive = true;
      }
    } else if (EqualsIgnoreCase(name, "transfer-encoding")) {
      return ParseError(out, 501, "transfer-encoding not supported\n");
    } else if (EqualsIgnoreCase(name, "expect")) {
      if (ContainsToken(value, "100-continue")) expect_continue = true;
    }
  }

  out->head_complete = true;
  out->expect_continue = expect_continue;
  if (in.size() < body_start + content_length) return ParseOutcome::kNeedMore;

  out->method = method;
  out->target = target;
  out->body = in.substr(body_start, content_length);
  out->keep_alive = keep_alive;
  out->consumed = body_start + content_length;
  return ParseOutcome::kRequest;
}

}  // namespace

// ---------------------------------------------------------------------------
// RequestQueue
// ---------------------------------------------------------------------------

bool HttpServer::RequestQueue::TryPush(PendingRequest&& request) {
  {
    MutexLock lock(mutex_);
    if (shutdown_ || queue_.size() >= high_water_) return false;
    queue_.push_back(std::move(request));
    if (depth_gauge_ != nullptr) {
      depth_gauge_->Set(static_cast<double>(queue_.size()));
    }
  }
  cv_.notify_one();
  return true;
}

bool HttpServer::RequestQueue::Pop(PendingRequest* out) {
  MutexLock lock(mutex_);
  while (!shutdown_ && queue_.empty()) cv_.wait(mutex_);
  if (queue_.empty()) return false;
  *out = std::move(queue_.front());
  queue_.pop_front();
  if (depth_gauge_ != nullptr) {
    depth_gauge_->Set(static_cast<double>(queue_.size()));
  }
  return true;
}

void HttpServer::RequestQueue::Shutdown() {
  {
    MutexLock lock(mutex_);
    shutdown_ = true;
  }
  cv_.notify_all();
}

#ifdef SURVEYOR_HAVE_EPOLL

// ---------------------------------------------------------------------------
// Worker: one event loop owning a set of connections
// ---------------------------------------------------------------------------

/// One event-loop thread. All connection state is owned by the loop
/// thread, which also runs inline handlers; the only cross-thread surface
/// is the mutex-protected mailbox (adopted fds, responses from the
/// handler pool, the stop flag) plus an eventfd that wakes epoll_wait
/// when the mailbox has work.
class HttpServer::Worker {
 public:
  Worker(HttpServer* server, int index) : server_(server), index_(index) {}

  ~Worker() {
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
  }

  Status Start() {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) {
      return Status::Internal("epoll_create1(): " +
                              std::system_category().message(errno));
    }
    wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (wake_fd_ < 0) {
      return Status::Internal("eventfd(): " +
                              std::system_category().message(errno));
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = 0;  // id 0 is reserved for the wake eventfd
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
      return Status::Internal("epoll_ctl(wake): " +
                              std::system_category().message(errno));
    }
    thread_ = std::thread([this] { Loop(); });
    return Status::OK();
  }

  /// Transfers ownership of an accepted (non-blocking) socket to this
  /// worker. Thread-safe; called from the listener.
  void Adopt(int fd) {
    {
      MutexLock lock(mutex_);
      adopted_.push_back(fd);
    }
    Wake();
  }

  /// Delivers a serialized response for `conn_id`. Thread-safe; called
  /// from handler threads. Responses for connections that died while the
  /// handler ran are dropped on the floor.
  void Complete(uint64_t conn_id, std::string bytes, bool keep_alive) {
    {
      MutexLock lock(mutex_);
      completions_.push_back({conn_id, std::move(bytes), keep_alive});
    }
    Wake();
  }

  void RequestStop() {
    {
      MutexLock lock(mutex_);
      stop_requested_ = true;
    }
    Wake();
  }

  void Join() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  struct Completion {
    uint64_t conn_id = 0;
    std::string bytes;
    bool keep_alive = true;
  };

  struct Connection {
    int fd = -1;
    uint64_t id = 0;
    /// Raw bytes read, not yet consumed by the parser.
    std::string in;
    /// Serialized response bytes not yet written; out_pos is the write
    /// cursor so flushed prefixes are not re-sent.
    std::string out;
    size_t out_pos = 0;
    /// A request from this connection sits in the pool's queue or one of
    /// its handlers; at most one per connection — pipelined successors
    /// wait in `in`, so responses leave in request order.
    bool busy = false;
    bool close_after_write = false;
    bool peer_closed = false;
    bool sent_continue = false;
    /// Back-pressure: reads are parked while `in` is full.
    bool reads_paused = false;
    uint32_t armed_events = EPOLLIN;
    Clock::time_point last_activity;
  };

  void Wake() {
    const uint64_t one = 1;
    ssize_t ignored = ::write(wake_fd_, &one, sizeof(one));
    (void)ignored;
  }

  void Loop() {
    epoll_event events[64];
    std::vector<uint64_t> idle_ids;
    Clock::time_point last_sweep = Clock::now();
    for (;;) {
      const int n = ::epoll_wait(epoll_fd_, events, 64, /*timeout_ms=*/50);
      if (n < 0 && errno != EINTR) break;

      // Drain the mailbox first so adopted fds see their first bytes and
      // completions land before the fd events that follow them.
      std::vector<int> adopted;
      std::vector<Completion> completions;
      {
        MutexLock lock(mutex_);
        adopted.swap(adopted_);
        completions.swap(completions_);
        if (stop_requested_ && !stopping_) {
          stopping_ = true;
          flush_deadline_ = Clock::now() + std::chrono::seconds(1);
        }
      }
      for (const int fd : adopted) {
        if (stopping_) {
          ::close(fd);
          server_->ReleaseConnection();
          continue;
        }
        AddConnection(fd);
      }
      for (Completion& completion : completions) {
        ApplyCompletion(std::move(completion));
      }

      for (int i = 0; i < n; ++i) {
        const uint64_t id = events[i].data.u64;
        if (id == 0) {
          uint64_t drained = 0;
          while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
          }
          continue;
        }
        const auto it = conns_.find(id);
        if (it == conns_.end()) continue;  // closed earlier this round
        Connection* conn = it->second.get();
        if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0 && !conn->busy &&
            conn->out_pos >= conn->out.size()) {
          Close(conn);
          continue;
        }
        if ((events[i].events & EPOLLOUT) != 0 && !FlushAndMaybeClose(conn)) {
          continue;
        }
        if ((events[i].events & EPOLLIN) != 0) {
          OnReadable(conn);
        } else {
          TryDispatch(conn);  // parsing waits for a drained write buffer
        }
      }

      // Idle sweep: cheap enough to run twice a second over every
      // connection this worker owns.
      const Clock::time_point now = Clock::now();
      const double idle_timeout = server_->options_.idle_timeout_seconds;
      if (idle_timeout > 0 &&
          now - last_sweep > std::chrono::milliseconds(500)) {
        last_sweep = now;
        idle_ids.clear();
        for (const auto& [id, conn] : conns_) {
          if (conn->busy) continue;
          const double idle =
              std::chrono::duration<double>(now - conn->last_activity)
                  .count();
          if (idle > idle_timeout) idle_ids.push_back(id);
        }
        for (const uint64_t id : idle_ids) {
          const auto it = conns_.find(id);
          if (it == conns_.end()) continue;
          Connection* conn = it->second.get();
          server_->idle_timeouts_total_->Increment();
          if (conn->in.empty() && conn->out_pos >= conn->out.size()) {
            // Quietly drop a keep-alive connection parked between
            // requests.
            Close(conn);
          } else {
            // A partial request held open this long is a slow loris;
            // name the timeout before hanging up.
            SendInline(conn, 408, "request timeout\n",
                       /*close_after=*/true);
          }
        }
      }

      if (stopping_) {
        bool pending_writes = false;
        for (const auto& [id, conn] : conns_) {
          if (conn->out_pos < conn->out.size()) pending_writes = true;
        }
        {
          MutexLock lock(mutex_);
          if (!completions_.empty()) continue;  // more responses to land
        }
        if (!pending_writes || Clock::now() > flush_deadline_) {
          while (!conns_.empty()) Close(conns_.begin()->second.get());
          return;
        }
      }
    }
  }

  void AddConnection(int fd) {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->id = next_id_++;
    conn->last_activity = Clock::now();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      server_->ReleaseConnection();
      return;
    }
    conns_.emplace(conn->id, std::move(conn));
  }

  void Close(Connection* conn) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
    // Released before the close, so a peer that has seen EOF also sees the
    // open-connection count drop.
    server_->ReleaseConnection();
    ::close(conn->fd);
    conns_.erase(conn->id);
  }

  /// Re-arms the connection's epoll interest to match its state: reads
  /// unless paused or half-closed, writes only while bytes are pending
  /// (EPOLLOUT would busy-loop a level-triggered loop otherwise).
  void UpdateInterest(Connection* conn) {
    uint32_t want = 0;
    if (!conn->reads_paused && !conn->peer_closed &&
        !conn->close_after_write) {
      want |= EPOLLIN;
    }
    if (conn->out_pos < conn->out.size()) want |= EPOLLOUT;
    if (want == conn->armed_events) return;
    epoll_event ev{};
    ev.events = want;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev) == 0) {
      conn->armed_events = want;
    }
  }

  /// Writes as much pending output as the socket accepts. Returns false
  /// when the connection was closed (write error, or close-after-write
  /// completing); the pointer is dead in that case.
  bool FlushAndMaybeClose(Connection* conn) {
    while (conn->out_pos < conn->out.size()) {
      const ssize_t n =
          ::send(conn->fd, conn->out.data() + conn->out_pos,
                 conn->out.size() - conn->out_pos, MSG_NOSIGNAL);
      if (n > 0) {
        conn->out_pos += static_cast<size_t>(n);
        conn->last_activity = Clock::now();
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        UpdateInterest(conn);
        return true;
      }
      Close(conn);
      return false;
    }
    conn->out.clear();
    conn->out_pos = 0;
    if (conn->close_after_write) {
      Close(conn);
      return false;
    }
    UpdateInterest(conn);
    return true;
  }

  /// Queues a transport-level response (429/431/408/...) and flushes.
  /// Returns false when the connection is gone.
  bool SendInline(Connection* conn, int status, std::string_view body,
                  bool close_after, std::string_view extra_header = {}) {
    const bool keep_alive = !close_after;
    conn->out += SimpleResponseBytes(status, body, keep_alive, extra_header);
    if (close_after) conn->close_after_write = true;
    return FlushAndMaybeClose(conn);
  }

  void OnReadable(Connection* conn) {
    char buffer[4096];
    for (;;) {
      if (conn->in.size() >= MaxBufferedInput()) {
        // A pipelining client ran ahead of the server; stop reading
        // until a buffered request is consumed.
        conn->reads_paused = true;
        UpdateInterest(conn);
        break;
      }
      const ssize_t n = ::recv(conn->fd, buffer, sizeof(buffer), 0);
      if (n > 0) {
        conn->in.append(buffer, static_cast<size_t>(n));
        conn->last_activity = Clock::now();
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      // EOF or hard error: no more requests will arrive. Any response
      // still owed (busy or buffered) may still be deliverable on the
      // half-open socket.
      conn->peer_closed = true;
      UpdateInterest(conn);
      break;
    }
    TryDispatch(conn);
  }

  /// Parses and answers as many buffered requests as it can. A request
  /// whose route cannot block runs right here, its handler reading views
  /// into `in`; one that may block is copied into the pool's queue or,
  /// past its high-water mark, shed with 429. A pooled request holds the
  /// connection (`busy`) until its response lands, and parsing also
  /// waits while output is pending, so responses stay in order and a
  /// client that does not read cannot grow `out` without bound.
  void TryDispatch(Connection* conn) {
    while (!conn->busy && !conn->close_after_write &&
           conn->out_pos >= conn->out.size()) {
      if (server_->draining_.load(std::memory_order_relaxed)) {
        if (!conn->in.empty()) {
          SendInline(conn, 503, "shutting down\n", /*close_after=*/true);
        }
        return;
      }
      ParsedRequest request;
      const ParseOutcome outcome =
          ParseOne(conn->in, server_->options_.max_header_bytes,
                   server_->options_.max_body_bytes, &request);
      if (outcome == ParseOutcome::kNeedMore) {
        if (request.head_complete && request.expect_continue &&
            !conn->sent_continue) {
          conn->sent_continue = true;
          conn->out += "HTTP/1.1 100 Continue\r\n\r\n";
          FlushAndMaybeClose(conn);
          return;
        }
        if (conn->peer_closed && conn->out_pos >= conn->out.size()) {
          // Half a request and the peer hung up: nothing left to do.
          Close(conn);
        }
        return;
      }
      if (outcome == ParseOutcome::kError) {
        server_->parse_errors_total_->Increment();
        SendInline(conn, request.error_status, request.error_message,
                   /*close_after=*/true);
        return;
      }
      conn->sent_continue = false;
      server_->requests_total_->Increment();
      if (!server_->route_blocks_(request.target)) {
        const HttpResponse response =
            server_->handler_(request.method, request.target, request.body);
        const bool keep_alive =
            request.keep_alive &&
            !server_->draining_.load(std::memory_order_relaxed);
        SerializeResponse(response, keep_alive, request.method == "HEAD",
                          &conn->out);
        Consume(conn, request.consumed);  // the views die here
        if (!FinishResponse(conn, keep_alive)) return;
        continue;
      }
      PendingRequest pending;
      pending.worker_index = index_;
      pending.connection_id = conn->id;
      pending.method = std::string(request.method);
      pending.target = std::string(request.target);
      pending.body = std::string(request.body);
      pending.keep_alive = request.keep_alive;
      Consume(conn, request.consumed);
      server_->inflight_.fetch_add(1, std::memory_order_acq_rel);
      if (!server_->queue_->TryPush(std::move(pending))) {
        server_->inflight_.fetch_sub(1, std::memory_order_acq_rel);
        server_->shed_total_->Increment();
        // The connection outlives the shed request unless the request
        // itself asked to close (HTTP/1.0, Connection: close).
        if (!SendInline(conn, 429, "overloaded, backing off helps\n",
                        /*close_after=*/!request.keep_alive,
                        "Retry-After: 1")) {
          return;
        }
        continue;  // the next pipelined request may still be admitted
      }
      conn->busy = true;
    }
  }

  /// Drops a parsed request's bytes from `in`; room in `in` resumes
  /// reads parked by OnReadable (FlushAndMaybeClose re-arms them).
  void Consume(Connection* conn, size_t bytes) {
    conn->in.erase(0, bytes);
    conn->reads_paused = false;
  }

  /// Sends a response just appended to `out`, closing afterwards when the
  /// request or the peer ended the connection. Returns false when the
  /// connection is gone.
  bool FinishResponse(Connection* conn, bool keep_alive) {
    conn->last_activity = Clock::now();
    if (!keep_alive || conn->peer_closed) conn->close_after_write = true;
    return FlushAndMaybeClose(conn);
  }

  void ApplyCompletion(Completion completion) {
    const auto it = conns_.find(completion.conn_id);
    if (it == conns_.end()) return;
    Connection* conn = it->second.get();
    conn->busy = false;
    if (conn->out.empty()) {
      conn->out = std::move(completion.bytes);
    } else {
      conn->out += completion.bytes;
    }
    if (!FinishResponse(conn, completion.keep_alive)) return;
    TryDispatch(conn);  // a pipelined successor may already be buffered
  }

  size_t MaxBufferedInput() const {
    return server_->options_.max_header_bytes +
           server_->options_.max_body_bytes + 1;
  }

  HttpServer* const server_;
  const int index_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::thread thread_;

  Mutex mutex_;
  std::vector<int> adopted_ SURVEYOR_GUARDED_BY(mutex_);
  std::vector<Completion> completions_ SURVEYOR_GUARDED_BY(mutex_);
  bool stop_requested_ SURVEYOR_GUARDED_BY(mutex_) = false;

  /// Loop-thread-only state.
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns_;
  uint64_t next_id_ = 1;  // 0 is the wake eventfd's id
  bool stopping_ = false;
  Clock::time_point flush_deadline_;
};

// ---------------------------------------------------------------------------
// HttpServer
// ---------------------------------------------------------------------------

void HttpServer::ReleaseConnection() {
  const size_t open =
      connections_.fetch_sub(1, std::memory_order_acq_rel) - 1;
  connections_gauge_->Set(static_cast<double>(open));
}

Status HttpServer::Start() {
  if (listen_fd_ >= 0) {
    return Status::FailedPrecondition("http server already started");
  }
  if (options_.port < 0 || options_.port > 65535) {
    return Status::InvalidArgument("http port out of range");
  }
  options_.num_workers = std::max(1, options_.num_workers);
  options_.handler_threads = std::max(1, options_.handler_threads);
  options_.max_connections = std::max<size_t>(1, options_.max_connections);
  options_.queue_high_water = std::max<size_t>(1, options_.queue_high_water);

  if (metrics_ == nullptr) {
    if (options_.metrics != nullptr) {
      metrics_ = options_.metrics;
    } else {
      owned_metrics_ = std::make_unique<MetricRegistry>();
      metrics_ = owned_metrics_.get();
    }
    accepted_total_ = metrics_->GetCounter("surveyor_http_accepted_total");
    rejected_connections_total_ =
        metrics_->GetCounter("surveyor_http_rejected_connections_total");
    requests_total_ = metrics_->GetCounter("surveyor_http_requests_total");
    shed_total_ = metrics_->GetCounter("surveyor_http_shed_total");
    parse_errors_total_ =
        metrics_->GetCounter("surveyor_http_parse_errors_total");
    idle_timeouts_total_ =
        metrics_->GetCounter("surveyor_http_idle_timeouts_total");
    connections_gauge_ = metrics_->GetGauge("surveyor_http_connections");
    queue_depth_gauge_ = metrics_->GetGauge("surveyor_http_queue_depth");
    metrics_->SetHelp("surveyor_http_accepted_total",
                      "Connections accepted by the listener");
    metrics_->SetHelp("surveyor_http_rejected_connections_total",
                      "Connections refused at the --max-connections cap");
    metrics_->SetHelp("surveyor_http_requests_total",
                      "HTTP requests parsed off connections");
    metrics_->SetHelp(
        "surveyor_http_shed_total",
        "Blocking-endpoint requests shed with 429 past the queue high-water "
        "mark");
    metrics_->SetHelp("surveyor_http_parse_errors_total",
                      "Connections dropped for malformed/oversized requests");
    metrics_->SetHelp("surveyor_http_idle_timeouts_total",
                      "Connections closed by the idle-timeout sweep");
    metrics_->SetHelp("surveyor_http_connections",
                      "Open connections across all workers");
    metrics_->SetHelp(
        "surveyor_http_queue_depth",
        "Blocking-endpoint requests waiting in the bounded handler queue");
  }

  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::Internal("socket(): " +
                            std::system_category().message(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(fd);
    return Status::InvalidArgument("bad bind address '" +
                                   options_.bind_address + "'");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string error = std::system_category().message(errno);
    ::close(fd);
    return Status::Internal("bind(" + options_.bind_address + ":" +
                            std::to_string(options_.port) + "): " + error);
  }
  if (::listen(fd, /*backlog=*/128) != 0) {
    const std::string error = std::system_category().message(errno);
    ::close(fd);
    return Status::Internal("listen(): " + error);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) ==
      0) {
    port_ = ntohs(bound.sin_port);
  }

  listener_wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (listener_wake_fd_ < 0) {
    ::close(fd);
    return Status::Internal("eventfd(): " +
                            std::system_category().message(errno));
  }

  listen_fd_ = fd;
  draining_.store(false);
  inflight_.store(0);
  connections_.store(0);
  next_worker_.store(0);
  connections_gauge_->Set(0);
  queue_depth_gauge_->Set(0);

  queue_ = std::make_unique<RequestQueue>(options_.queue_high_water,
                                          queue_depth_gauge_);
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.push_back(std::make_unique<Worker>(this, i));
    const Status status = workers_.back()->Start();
    if (!status.ok()) {
      Stop();
      return status;
    }
  }
  handler_pool_.reserve(static_cast<size_t>(options_.handler_threads));
  for (int i = 0; i < options_.handler_threads; ++i) {
    handler_pool_.emplace_back([this] { HandlerLoop(); });
  }
  listener_thread_ = std::thread([this] { ListenerLoop(); });
  return Status::OK();
}

void HttpServer::ListenerLoop() {
  const int epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd < 0) return;
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev = epoll_event{};
  ev.events = EPOLLIN;
  ev.data.fd = listener_wake_fd_;
  ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, listener_wake_fd_, &ev);

  // Serialized once; every over-capacity connection gets the same bytes.
  const std::string at_capacity = SimpleResponseBytes(
      503, "server at connection capacity\n", /*keep_alive=*/false,
      "Retry-After: 1");

  epoll_event events[8];
  while (!draining_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_fd, events, 8, -1);
    if (n < 0 && errno != EINTR) break;
    for (int i = 0; i < n; ++i) {
      if (events[i].data.fd == listener_wake_fd_) {
        uint64_t drained = 0;
        while (::read(listener_wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      // Edge-triggered accept: drain the backlog completely, the
      // notification will not repeat for connections already queued.
      for (;;) {
        const int client = ::accept4(listen_fd_, nullptr, nullptr,
                                     SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (client < 0) {
          if (errno == EINTR || errno == ECONNABORTED) continue;
          break;  // EAGAIN, or a transient error the next edge retries
        }
        const size_t open =
            connections_.fetch_add(1, std::memory_order_acq_rel) + 1;
        if (open > options_.max_connections) {
          // Over the cap: answer 503 inline and hang up without ever
          // involving a worker.
          rejected_connections_total_->Increment();
          ssize_t ignored = ::send(client, at_capacity.data(),
                                   at_capacity.size(), MSG_NOSIGNAL);
          (void)ignored;
          ::close(client);
          ReleaseConnection();
          continue;
        }
        connections_gauge_->Set(static_cast<double>(open));
        accepted_total_->Increment();
        const size_t index =
            next_worker_.fetch_add(1, std::memory_order_relaxed) %
            workers_.size();
        workers_[index]->Adopt(client);
      }
    }
  }
  ::close(epoll_fd);
}

void HttpServer::HandlerLoop() {
  PendingRequest request;
  while (queue_->Pop(&request)) {
    const HttpResponse response =
        handler_(request.method, request.target, request.body);
    const bool keep_alive =
        request.keep_alive && !draining_.load(std::memory_order_relaxed);
    std::string bytes;
    SerializeResponse(response, keep_alive, request.method == "HEAD", &bytes);
    workers_[static_cast<size_t>(request.worker_index)]->Complete(
        request.connection_id, std::move(bytes), keep_alive);
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
  }
}

void HttpServer::Stop() {
  if (listen_fd_ < 0) return;
  // 1. Stop admitting: new connections are refused (listener exits), new
  //    parsed requests answer 503.
  draining_.store(true, std::memory_order_release);
  {
    const uint64_t one = 1;
    ssize_t ignored = ::write(listener_wake_fd_, &one, sizeof(one));
    (void)ignored;
  }
  if (listener_thread_.joinable()) listener_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::close(listener_wake_fd_);
  listener_wake_fd_ = -1;

  // 2. Drain: wait (bounded) for queued and executing requests to hand
  //    their responses back to the workers.
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             std::max(0.0, options_.drain_seconds)));
  while (inflight_.load(std::memory_order_acquire) > 0 &&
         Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // 3. Tear down the handler pool (Pop drains whatever is still queued
  //    first), then the workers, which flush pending responses before
  //    closing their connections.
  if (queue_ != nullptr) queue_->Shutdown();
  for (std::thread& thread : handler_pool_) {
    if (thread.joinable()) thread.join();
  }
  handler_pool_.clear();
  for (const std::unique_ptr<Worker>& worker : workers_) {
    worker->RequestStop();
  }
  for (const std::unique_ptr<Worker>& worker : workers_) {
    worker->Join();
  }
  workers_.clear();
  queue_.reset();
  connections_.store(0);
  if (connections_gauge_ != nullptr) connections_gauge_->Set(0);
  if (queue_depth_gauge_ != nullptr) queue_depth_gauge_->Set(0);
  draining_.store(false);  // the server can Start() again
}

#else  // !SURVEYOR_HAVE_EPOLL

class HttpServer::Worker {};

Status HttpServer::Start() {
  return Status::Unimplemented("http server needs Linux epoll");
}

void HttpServer::Stop() {}

void HttpServer::ListenerLoop() {}

void HttpServer::HandlerLoop() {}

void HttpServer::ReleaseConnection() {}

#endif  // SURVEYOR_HAVE_EPOLL

HttpServer::HttpServer(HttpHandler handler, HttpRouteBlocks route_blocks,
                       HttpServerOptions options)
    : handler_(std::move(handler)),
      route_blocks_(std::move(route_blocks)),
      options_(std::move(options)) {
  SURVEYOR_CHECK(handler_ != nullptr);
  SURVEYOR_CHECK(route_blocks_ != nullptr);
}

HttpServer::~HttpServer() { Stop(); }

int64_t HttpServer::shed_count() const {
  return shed_total_ == nullptr ? 0 : shed_total_->Value();
}

}  // namespace obs
}  // namespace surveyor
