// A blocking HTTP/1.1 keep-alive client over loopback TCP, just enough to
// drive the serving tier: one request in flight per connection, status
// line + headers + Content-Length body.
#ifndef SURVEYOR_PERFBENCH_HTTP_CLIENT_H_
#define SURVEYOR_PERFBENCH_HTTP_CLIENT_H_

#include <string>
#include <string_view>

namespace perfbench {

class HttpClient {
 public:
  explicit HttpClient(int port) : port_(port) {}
  ~HttpClient() { Disconnect(); }
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// Connects now, so the first timed request does not pay the handshake.
  bool Connect();

  /// Sends one request and reads the whole response into `body`. Returns
  /// the HTTP status, or -1 on a transport error (the connection is then
  /// dropped and re-made on the next call). A socket timeout bounds every
  /// read, so a hung server fails the request instead of the run.
  int Send(std::string_view method, std::string_view target,
           std::string_view request_body, std::string* body);

 private:
  void Disconnect();
  bool WriteAll(const std::string& data);
  bool Fill();
  int ReadResponse(std::string* body);

  int port_;
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace perfbench

#endif  // SURVEYOR_PERFBENCH_HTTP_CLIENT_H_
