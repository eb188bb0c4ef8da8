#include "obs/http_server.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/metrics.h"

#if defined(__linux__)

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace surveyor {
namespace obs {
namespace {

/// Raw blocking client with a receive timeout, so a server bug shows up
/// as a test failure instead of a hung test binary.
class RawClient {
 public:
  explicit RawClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
  }

  ~RawClient() { Close(); }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  bool Send(const std::string& data) {
    size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads until `terminator` appears in the buffered stream (or times
  /// out) and consumes through it; pipelined bytes past the terminator
  /// stay buffered for the next read.
  std::string ReadUntil(const std::string& terminator,
                        int timeout_ms = 5000) {
    size_t end;
    while ((end = buffer_.find(terminator)) == std::string::npos) {
      if (!Fill(timeout_ms)) {
        std::string rest = std::move(buffer_);
        buffer_.clear();
        return rest;
      }
    }
    std::string data = buffer_.substr(0, end + terminator.size());
    buffer_.erase(0, end + terminator.size());
    return data;
  }

  /// Reads and consumes one full response: head + Content-Length body.
  std::string ReadResponse(int timeout_ms = 5000) {
    size_t head_end;
    while ((head_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      if (!Fill(timeout_ms)) {
        std::string rest = std::move(buffer_);
        buffer_.clear();
        return rest;
      }
    }
    size_t content_length = 0;
    const size_t marker = buffer_.find("Content-Length: ");
    if (marker != std::string::npos && marker < head_end) {
      for (size_t i = marker + 16; i < buffer_.size() &&
                                   buffer_[i] >= '0' && buffer_[i] <= '9';
           ++i) {
        content_length = content_length * 10 +
                         static_cast<size_t>(buffer_[i] - '0');
      }
    }
    const size_t total = head_end + 4 + content_length;
    while (buffer_.size() < total) {
      if (!Fill(timeout_ms)) break;
    }
    std::string data = buffer_.substr(0, total);
    buffer_.erase(0, std::min(total, buffer_.size()));
    return data;
  }

  /// Reads until the peer closes; "" on timeout with nothing read.
  std::string ReadToEof(int timeout_ms = 5000) {
    while (Fill(timeout_ms)) {
    }
    std::string data = std::move(buffer_);
    buffer_.clear();
    return data;
  }

  /// True once a read gave up waiting (as opposed to seeing EOF).
  bool timed_out() const { return timed_out_; }

  /// True when the peer has closed (EOF within the timeout).
  bool AtEof(int timeout_ms = 5000) {
    pollfd pfd{fd_, POLLIN, 0};
    if (::poll(&pfd, 1, timeout_ms) <= 0) return false;
    char byte;
    return ::recv(fd_, &byte, 1, MSG_PEEK) == 0;
  }

 private:
  bool Fill(int timeout_ms) {
    pollfd pfd{fd_, POLLIN, 0};
    if (::poll(&pfd, 1, timeout_ms) <= 0) {
      timed_out_ = true;
      return false;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
    return true;
  }

  int fd_ = -1;
  std::string buffer_;
  bool timed_out_ = false;
};

/// An echo-ish handler: 200 with the method and target in the body so
/// tests can match responses to requests.
HttpResponse EchoHandler(std::string_view method, std::string_view target,
                         std::string_view body) {
  HttpResponse response;
  response.body = std::string(method) + " " + std::string(target);
  if (!body.empty()) {
    response.body += " body=" + std::string(body);
  }
  response.body += "\n";
  return response;
}

/// Route predicates: every request inline, every request on the pool,
/// or paths under /block on the pool and the rest inline.
bool NeverBlocks(std::string_view) { return false; }
bool AlwaysBlocks(std::string_view) { return true; }
bool BlockPathBlocks(std::string_view target) {
  return target.substr(0, 6) == "/block";
}

HttpServerOptions SmallOptions() {
  HttpServerOptions options;
  options.num_workers = 2;
  options.handler_threads = 2;
  return options;
}

TEST(HttpServerTest, KeepAliveServesManyRequestsOnOneConnection) {
  HttpServer server(EchoHandler, NeverBlocks, SmallOptions());
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.port());
  for (int i = 0; i < 5; ++i) {
    const std::string target = "/ping?n=" + std::to_string(i);
    ASSERT_TRUE(client.Send("GET " + target +
                            " HTTP/1.1\r\nHost: t\r\n\r\n"));
    const std::string response = client.ReadResponse();
    EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
    EXPECT_NE(response.find("Connection: keep-alive"), std::string::npos);
    EXPECT_NE(response.find("GET " + target), std::string::npos);
  }
  // All five answers came over the same accepted connection.
  EXPECT_EQ(server.open_connections(), 1u);
  server.Stop();
}

TEST(HttpServerTest, Http10ConnectionClosesAfterResponse) {
  HttpServer server(EchoHandler, NeverBlocks, SmallOptions());
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.port());
  ASSERT_TRUE(client.Send("GET /one HTTP/1.0\r\nHost: t\r\n\r\n"));
  const std::string response = client.ReadToEof();
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("Connection: close"), std::string::npos);
  server.Stop();
}

TEST(HttpServerTest, PipelinedRequestsAnswerInOrder) {
  HttpServer server(EchoHandler, NeverBlocks, SmallOptions());
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.port());
  ASSERT_TRUE(client.Send(
      "GET /first HTTP/1.1\r\nHost: t\r\n\r\n"
      "GET /second HTTP/1.1\r\nHost: t\r\n\r\n"
      "GET /third HTTP/1.1\r\nHost: t\r\n\r\n"));
  const std::string r1 = client.ReadResponse();
  const std::string r2 = client.ReadResponse();
  const std::string r3 = client.ReadResponse();
  EXPECT_NE(r1.find("GET /first"), std::string::npos) << r1;
  EXPECT_NE(r2.find("GET /second"), std::string::npos) << r2;
  EXPECT_NE(r3.find("GET /third"), std::string::npos) << r3;
  server.Stop();
}

TEST(HttpServerTest, SlowLorisPartialRequestIsAnswered408AndClosed) {
  MetricRegistry metrics;
  HttpServerOptions options = SmallOptions();
  options.idle_timeout_seconds = 0.2;
  options.metrics = &metrics;
  HttpServer server(EchoHandler, NeverBlocks, options);
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.port());
  // A request head that never finishes.
  ASSERT_TRUE(client.Send("GET /slow HTTP/1.1\r\nHost: t\r\n"));
  const std::string response = client.ReadToEof();
  EXPECT_NE(response.find("HTTP/1.1 408"), std::string::npos) << response;
  EXPECT_GE(
      metrics.GetCounter("surveyor_http_idle_timeouts_total")->Value(), 1);
  server.Stop();
}

TEST(HttpServerTest, IdleKeepAliveConnectionIsReapedQuietly) {
  HttpServerOptions options = SmallOptions();
  options.idle_timeout_seconds = 0.2;
  HttpServer server(EchoHandler, NeverBlocks, options);
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.port());
  ASSERT_TRUE(client.Send("GET /ok HTTP/1.1\r\nHost: t\r\n\r\n"));
  EXPECT_NE(client.ReadResponse().find("200 OK"), std::string::npos);
  // Idle with no partial request: the sweep closes without a response.
  EXPECT_TRUE(client.AtEof());
  EXPECT_EQ(server.open_connections(), 0u);
  server.Stop();
}

TEST(HttpServerTest, OversizedHeadIsRejected431) {
  HttpServerOptions options = SmallOptions();
  options.max_header_bytes = 256;
  HttpServer server(EchoHandler, NeverBlocks, options);
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.port());
  ASSERT_TRUE(client.Send("GET /big HTTP/1.1\r\nHost: t\r\nX-Pad: " +
                          std::string(512, 'x') + "\r\n\r\n"));
  const std::string response = client.ReadToEof();
  EXPECT_NE(response.find("HTTP/1.1 431"), std::string::npos) << response;
  server.Stop();
}

TEST(HttpServerTest, MalformedRequestLineIsRejected400) {
  HttpServer server(EchoHandler, NeverBlocks, SmallOptions());
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.port());
  ASSERT_TRUE(client.Send("NONSENSE\r\n\r\n"));
  const std::string response = client.ReadToEof();
  EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos) << response;
  server.Stop();
}

TEST(HttpServerTest, OversizedBodyIsRejected413) {
  HttpServerOptions options = SmallOptions();
  options.max_body_bytes = 64;
  HttpServer server(EchoHandler, NeverBlocks, options);
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.port());
  ASSERT_TRUE(client.Send("POST /p HTTP/1.1\r\nHost: t\r\n"
                          "Content-Length: 1000\r\n\r\n"));
  const std::string response = client.ReadToEof();
  EXPECT_NE(response.find("HTTP/1.1 413"), std::string::npos) << response;
  server.Stop();
}

TEST(HttpServerTest, ChunkedEncodingIsRejected501) {
  HttpServer server(EchoHandler, NeverBlocks, SmallOptions());
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.port());
  ASSERT_TRUE(client.Send("POST /c HTTP/1.1\r\nHost: t\r\n"
                          "Transfer-Encoding: chunked\r\n\r\n"));
  const std::string response = client.ReadToEof();
  EXPECT_NE(response.find("HTTP/1.1 501"), std::string::npos) << response;
  server.Stop();
}

TEST(HttpServerTest, PostBodyReachesTheHandler) {
  HttpServer server(EchoHandler, NeverBlocks, SmallOptions());
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.port());
  const std::string body = "{\"hello\":\"world\"}";
  ASSERT_TRUE(client.Send("POST /submit HTTP/1.1\r\nHost: t\r\n"
                          "Content-Length: " + std::to_string(body.size()) +
                          "\r\n\r\n" + body));
  const std::string response = client.ReadResponse();
  EXPECT_NE(response.find("body=" + body), std::string::npos) << response;
  server.Stop();
}

TEST(HttpServerTest, HeadKeepsContentLengthButSuppressesBody) {
  HttpServer server(EchoHandler, NeverBlocks, SmallOptions());
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.port());
  // HEAD then GET pipelined: the HEAD response must not carry a body, or
  // the GET response would be misframed.
  ASSERT_TRUE(client.Send("HEAD /h HTTP/1.1\r\nHost: t\r\n\r\n"
                          "GET /after HTTP/1.1\r\nHost: t\r\n\r\n"));
  const std::string head = client.ReadUntil("\r\n\r\n");
  EXPECT_NE(head.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(head.find("Content-Length:"), std::string::npos);
  const std::string after = client.ReadResponse();
  EXPECT_NE(after.find("GET /after"), std::string::npos) << after;
  server.Stop();
}

TEST(HttpServerTest, Expect100ContinueIsAcknowledged) {
  HttpServer server(EchoHandler, NeverBlocks, SmallOptions());
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.port());
  const std::string body = "late-body";
  ASSERT_TRUE(client.Send("POST /e HTTP/1.1\r\nHost: t\r\n"
                          "Expect: 100-continue\r\n"
                          "Content-Length: " + std::to_string(body.size()) +
                          "\r\n\r\n"));
  const std::string interim = client.ReadUntil("\r\n\r\n");
  EXPECT_NE(interim.find("HTTP/1.1 100 Continue"), std::string::npos)
      << interim;
  ASSERT_TRUE(client.Send(body));
  const std::string response = client.ReadResponse();
  EXPECT_NE(response.find("body=" + body), std::string::npos) << response;
  server.Stop();
}

TEST(HttpServerTest, ExtraResponseHeadersAreWrittenVerbatim) {
  HttpServer server(
      [](std::string_view, std::string_view, std::string_view) {
        HttpResponse response;
        response.body = "ok\n";
        response.headers.emplace_back("Deprecation", "true");
        response.headers.emplace_back("Retry-After", "1");
        return response;
      },
      NeverBlocks, SmallOptions());
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.port());
  ASSERT_TRUE(client.Send("GET / HTTP/1.1\r\nHost: t\r\n\r\n"));
  const std::string response = client.ReadResponse();
  EXPECT_NE(response.find("Deprecation: true"), std::string::npos);
  EXPECT_NE(response.find("Retry-After: 1"), std::string::npos);
  server.Stop();
}

TEST(HttpServerTest, QueueOverflowIsShedWith429RetryAfter) {
  // One handler thread wedged on a latch + a one-deep queue: the third
  // concurrent request has nowhere to go and must be shed immediately.
  // The latch handler blocks, so every route is routed to the pool.
  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  int entered = 0;
  MetricRegistry metrics;
  HttpServerOptions options = SmallOptions();
  options.handler_threads = 1;
  options.queue_high_water = 1;
  options.metrics = &metrics;
  HttpServer server(
      [&](std::string_view, std::string_view, std::string_view) {
        std::unique_lock<std::mutex> lock(mutex);
        ++entered;
        cv.notify_all();
        cv.wait(lock, [&] { return release; });
        HttpResponse response;
        response.body = "done\n";
        return response;
      },
      AlwaysBlocks, options);
  ASSERT_TRUE(server.Start().ok());
  auto release_handler = [&] {
    {
      std::lock_guard<std::mutex> lock(mutex);
      release = true;
    }
    cv.notify_all();
  };

  // Each request is sent only once the previous one is observably in
  // place, so the order handler -> queue -> shed is fixed: `blocked` is
  // inside the handler (entered), then `queued` sits in the queue (depth
  // gauge), then `extra` finds the queue at its high-water mark.
  RawClient blocked(server.port());
  ASSERT_TRUE(blocked.Send("GET /a HTTP/1.1\r\nHost: t\r\n\r\n"));
  bool handler_entered = false;
  {
    std::unique_lock<std::mutex> lock(mutex);
    handler_entered = cv.wait_for(lock, std::chrono::seconds(5),
                                  [&] { return entered == 1; });
  }
  if (!handler_entered) release_handler();
  ASSERT_TRUE(handler_entered);

  RawClient queued(server.port());
  ASSERT_TRUE(queued.Send("GET /b HTTP/1.1\r\nHost: t\r\n\r\n"));
  Gauge* depth = metrics.GetGauge("surveyor_http_queue_depth");
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (depth->Value() < 1.0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (depth->Value() != 1.0) release_handler();
  ASSERT_EQ(depth->Value(), 1.0);

  RawClient extra(server.port());
  ASSERT_TRUE(extra.Send("GET /c HTTP/1.1\r\nHost: t\r\n\r\n"));
  const std::string shed_response = extra.ReadResponse();
  EXPECT_NE(shed_response.find("HTTP/1.1 429"), std::string::npos);
  EXPECT_NE(shed_response.find("Retry-After:"), std::string::npos);
  // The shed connection stays usable — admission control rejects the
  // request, not the client.
  EXPECT_NE(shed_response.find("Connection: keep-alive"),
            std::string::npos);
  EXPECT_EQ(server.shed_count(), 1);
  EXPECT_EQ(metrics.GetCounter("surveyor_http_shed_total")->Value(), 1);

  release_handler();
  EXPECT_NE(blocked.ReadResponse().find("200 OK"), std::string::npos);
  EXPECT_NE(queued.ReadResponse().find("200 OK"), std::string::npos);
  server.Stop();
}

TEST(HttpServerTest, ConnectionsOverTheCapAreRefused503) {
  HttpServerOptions options = SmallOptions();
  options.max_connections = 2;
  HttpServer server(EchoHandler, NeverBlocks, options);
  ASSERT_TRUE(server.Start().ok());
  RawClient first(server.port());
  RawClient second(server.port());
  // Make sure both are really registered before the third connects.
  ASSERT_TRUE(first.Send("GET /1 HTTP/1.1\r\nHost: t\r\n\r\n"));
  ASSERT_TRUE(second.Send("GET /2 HTTP/1.1\r\nHost: t\r\n\r\n"));
  EXPECT_NE(first.ReadResponse().find("200 OK"), std::string::npos);
  EXPECT_NE(second.ReadResponse().find("200 OK"), std::string::npos);
  RawClient third(server.port());
  const std::string refused = third.ReadToEof();
  EXPECT_NE(refused.find("HTTP/1.1 503"), std::string::npos) << refused;
  EXPECT_NE(refused.find("Retry-After:"), std::string::npos);
  server.Stop();
}

TEST(HttpServerTest, StopDrainsInFlightRequests) {
  std::atomic<bool> entered{false};
  HttpServer server(
      [&](std::string_view, std::string_view, std::string_view) {
        entered.store(true);
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        HttpResponse response;
        response.body = "drained\n";
        return response;
      },
      AlwaysBlocks, SmallOptions());
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.port());
  ASSERT_TRUE(client.Send("GET /slow HTTP/1.1\r\nHost: t\r\n\r\n"));
  while (!entered.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::thread stopper([&server] { server.Stop(); });
  const std::string response = client.ReadToEof();
  stopper.join();
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("drained"), std::string::npos);
}

TEST(HttpServerTest, StopIsIdempotentAndServerRestartable) {
  HttpServer server(EchoHandler, NeverBlocks, SmallOptions());
  ASSERT_TRUE(server.Start().ok());
  const int first_port = server.port();
  EXPECT_GT(first_port, 0);
  server.Stop();
  server.Stop();
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.port());
  ASSERT_TRUE(client.Send("GET /again HTTP/1.1\r\nHost: t\r\n\r\n"));
  EXPECT_NE(client.ReadResponse().find("200 OK"), std::string::npos);
  server.Stop();
}

/// True when `response` is one whole response: a status line, a head,
/// and exactly Content-Length body bytes.
bool IsCompleteResponse(const std::string& response) {
  const size_t head_end = response.find("\r\n\r\n");
  const size_t marker = response.find("Content-Length: ");
  if (response.rfind("HTTP/1.1 ", 0) != 0 || head_end == std::string::npos ||
      marker == std::string::npos || marker > head_end) {
    return false;
  }
  return response.size() ==
         head_end + 4 + std::stoul(response.substr(marker + 16));
}

TEST(HttpServerTest, InlineAndPooledDispatchWriteTheSameBytes) {
  const std::string requests =
      "GET /a?x=1 HTTP/1.1\r\nHost: t\r\n\r\n"
      "HEAD /h HTTP/1.1\r\nHost: t\r\n\r\n"
      "POST /p HTTP/1.1\r\nHost: t\r\nContent-Length: 5\r\n\r\nhello"
      "GET /last HTTP/1.0\r\nHost: t\r\n\r\n";
  std::vector<std::string> answers;
  for (const HttpRouteBlocks& route : {HttpRouteBlocks(NeverBlocks),
                                       HttpRouteBlocks(AlwaysBlocks)}) {
    HttpServer server(EchoHandler, route, SmallOptions());
    ASSERT_TRUE(server.Start().ok());
    RawClient client(server.port());
    ASSERT_TRUE(client.Send(requests));
    answers.push_back(client.ReadToEof());
    server.Stop();
  }
  EXPECT_EQ(answers[0], answers[1]);
  EXPECT_NE(answers[0].find("POST /p body=hello"), std::string::npos)
      << answers[0];
  EXPECT_NE(answers[0].find("GET /last"), std::string::npos) << answers[0];
}

TEST(HttpServerTest, PipelinedInlineAndPooledRequestsAnswerInOrder) {
  // /block requests sleep on the pool long enough that an inline
  // successor answered out of turn would overtake them.
  HttpServer server(
      [](std::string_view method, std::string_view target,
         std::string_view body) {
        if (BlockPathBlocks(target)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
        return EchoHandler(method, target, body);
      },
      BlockPathBlocks, SmallOptions());
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.port());
  const std::vector<std::string> targets = {"/inline-1", "/block-2",
                                            "/inline-3", "/block-4",
                                            "/inline-5"};
  std::string pipelined;
  for (const std::string& target : targets) {
    pipelined += "GET " + target + " HTTP/1.1\r\nHost: t\r\n\r\n";
  }
  ASSERT_TRUE(client.Send(pipelined));
  for (const std::string& target : targets) {
    const std::string response = client.ReadResponse();
    EXPECT_NE(response.find("200 OK"), std::string::npos) << response;
    EXPECT_NE(response.find("GET " + target + "\n"), std::string::npos)
        << "expected " << target << ", got " << response;
  }
  server.Stop();
}

TEST(HttpServerTest, InlineRequestsAnswerWhileThePoolIsWedged) {
  // The one pool thread is stuck on a latch and the one-deep queue is
  // full, yet inline requests never touch either: they answer 200 while
  // a blocking request is shed.
  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  int entered = 0;
  MetricRegistry metrics;
  HttpServerOptions options = SmallOptions();
  options.handler_threads = 1;
  options.queue_high_water = 1;
  options.metrics = &metrics;
  HttpServer server(
      [&](std::string_view method, std::string_view target,
          std::string_view body) {
        if (BlockPathBlocks(target)) {
          std::unique_lock<std::mutex> lock(mutex);
          ++entered;
          cv.notify_all();
          cv.wait(lock, [&] { return release; });
        }
        return EchoHandler(method, target, body);
      },
      BlockPathBlocks, options);
  ASSERT_TRUE(server.Start().ok());
  auto release_handler = [&] {
    {
      std::lock_guard<std::mutex> lock(mutex);
      release = true;
    }
    cv.notify_all();
  };

  RawClient blocked(server.port());
  ASSERT_TRUE(blocked.Send("GET /block-a HTTP/1.1\r\nHost: t\r\n\r\n"));
  bool handler_entered = false;
  {
    std::unique_lock<std::mutex> lock(mutex);
    handler_entered = cv.wait_for(lock, std::chrono::seconds(5),
                                  [&] { return entered == 1; });
  }
  if (!handler_entered) release_handler();
  ASSERT_TRUE(handler_entered);

  RawClient queued(server.port());
  ASSERT_TRUE(queued.Send("GET /block-b HTTP/1.1\r\nHost: t\r\n\r\n"));
  Gauge* depth = metrics.GetGauge("surveyor_http_queue_depth");
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (depth->Value() < 1.0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (depth->Value() != 1.0) release_handler();
  ASSERT_EQ(depth->Value(), 1.0);

  // Inline requests on another connection: answered, never queued.
  RawClient fast(server.port());
  for (int i = 0; i < 3; ++i) {
    const std::string target = "/fast-" + std::to_string(i);
    ASSERT_TRUE(fast.Send("GET " + target + " HTTP/1.1\r\nHost: t\r\n\r\n"));
    const std::string response = fast.ReadResponse();
    EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos)
        << response;
    EXPECT_NE(response.find("GET " + target), std::string::npos) << response;
  }
  EXPECT_EQ(depth->Value(), 1.0);
  EXPECT_EQ(server.shed_count(), 0);

  // A blocking request finds the queue at its high-water mark.
  RawClient extra(server.port());
  ASSERT_TRUE(extra.Send("GET /block-c HTTP/1.1\r\nHost: t\r\n\r\n"));
  const std::string shed_response = extra.ReadResponse();
  EXPECT_NE(shed_response.find("HTTP/1.1 429"), std::string::npos)
      << shed_response;
  EXPECT_EQ(server.shed_count(), 1);

  release_handler();
  EXPECT_NE(blocked.ReadResponse().find("GET /block-a"), std::string::npos);
  EXPECT_NE(queued.ReadResponse().find("GET /block-b"), std::string::npos);
  server.Stop();
}

TEST(HttpServerTest, StopWhileInlineRequestsStreamEndsCleanly) {
  HttpServer server(EchoHandler, NeverBlocks, SmallOptions());
  ASSERT_TRUE(server.Start().ok());
  constexpr int kClients = 4;
  std::atomic<int> connected{0};
  std::atomic<int> ok{0};
  std::atomic<int> unavailable{0};
  std::atomic<int> broken{0};
  std::atomic<int> hung{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      RawClient client(server.port());
      connected.fetch_add(1);
      for (int i = 0;; ++i) {
        const std::string target =
            "/c" + std::to_string(c) + "/r" + std::to_string(i);
        if (!client.Send("GET " + target + " HTTP/1.1\r\nHost: t\r\n\r\n")) {
          return;
        }
        const std::string response = client.ReadResponse();
        if (response.empty()) {
          // EOF, or a reset for a request the stopping server never read.
          if (client.timed_out()) hung.fetch_add(1);
          return;
        }
        if (!IsCompleteResponse(response)) {
          broken.fetch_add(1);
          ADD_FAILURE() << "partial response: " << response;
          return;
        }
        if (response.rfind("HTTP/1.1 503", 0) == 0) {
          unavailable.fetch_add(1);
        } else if (response.rfind("HTTP/1.1 200 OK", 0) == 0 &&
                   response.find("GET " + target + "\n") !=
                       std::string::npos) {
          ok.fetch_add(1);
        } else {
          broken.fetch_add(1);
          ADD_FAILURE() << "unexpected response: " << response;
          return;
        }
      }
    });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  // Every client is connected (a connect after Stop() would be refused)
  // and the stream is under way.
  while ((connected.load() < kClients || ok.load() < 200) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(connected.load(), kClients);
  EXPECT_GE(ok.load(), 200);
  const auto stop_start = std::chrono::steady_clock::now();
  server.Stop();
  const double stop_seconds = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - stop_start)
                                  .count();
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(broken.load(), 0);
  EXPECT_EQ(hung.load(), 0);
  // Nothing is pooled, so nothing is drained: Stop() only flushes.
  EXPECT_LT(stop_seconds, 2.0);
}

TEST(HttpServerTest, ManyConcurrentKeepAliveClients) {
  MetricRegistry metrics;
  HttpServerOptions options = SmallOptions();
  options.metrics = &metrics;
  HttpServer server(EchoHandler, NeverBlocks, options);
  ASSERT_TRUE(server.Start().ok());
  constexpr int kClients = 8;
  constexpr int kRequestsEach = 20;
  std::vector<std::thread> clients;
  std::atomic<int> ok{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      RawClient client(server.port());
      for (int i = 0; i < kRequestsEach; ++i) {
        const std::string target =
            "/c" + std::to_string(c) + "/r" + std::to_string(i);
        if (!client.Send("GET " + target + " HTTP/1.1\r\nHost: t\r\n\r\n")) {
          return;
        }
        const std::string response = client.ReadResponse();
        if (response.find("GET " + target) != std::string::npos) {
          ok.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(ok.load(), kClients * kRequestsEach);
  EXPECT_EQ(
      metrics.GetCounter("surveyor_http_requests_total")->Value(),
      kClients * kRequestsEach);
  server.Stop();
}

}  // namespace
}  // namespace obs
}  // namespace surveyor

#endif  // defined(__linux__)
