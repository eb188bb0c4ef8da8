#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cstdint>

namespace perfbench {

bool HttpClient::Connect() {
  if (fd_ >= 0) return true;
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval timeout{};
  timeout.tv_sec = 10;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port_));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Disconnect();
    return false;
  }
  return true;
}

void HttpClient::Disconnect() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

bool HttpClient::WriteAll(const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

bool HttpClient::Fill() {
  char chunk[16384];
  const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
  if (n <= 0) return false;
  buffer_.append(chunk, static_cast<size_t>(n));
  return true;
}

int HttpClient::Send(std::string_view method, std::string_view target,
                     std::string_view request_body, std::string* body) {
  if (!Connect()) return -1;
  std::string request;
  request.reserve(target.size() + request_body.size() + 96);
  request.append(method).append(" ").append(target).append(
      " HTTP/1.1\r\nHost: bench\r\n");
  if (!request_body.empty()) {
    request.append("Content-Type: application/json\r\nContent-Length: ")
        .append(std::to_string(request_body.size()))
        .append("\r\n");
  }
  request.append("\r\n").append(request_body);
  if (!WriteAll(request)) {
    Disconnect();
    return -1;
  }
  const int status = ReadResponse(body);
  if (status < 0) Disconnect();
  return status;
}

int HttpClient::ReadResponse(std::string* body) {
  size_t head_end;
  while ((head_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
    if (!Fill()) return -1;
  }
  const std::string_view head(buffer_.data(), head_end);
  // "HTTP/1.1 200 OK" -> 200.
  const size_t space = head.find(' ');
  if (space == std::string_view::npos || space + 4 > head.size()) return -1;
  int status = 0;
  for (size_t i = 1; i <= 3; ++i) {
    const char c = head[space + i];
    if (c < '0' || c > '9') return -1;
    status = status * 10 + (c - '0');
  }
  size_t content_length = 0;
  size_t line = head.find("\r\n");
  while (line != std::string_view::npos && line < head_end) {
    line += 2;
    size_t eol = head.find("\r\n", line);
    if (eol == std::string_view::npos) eol = head_end;
    const std::string_view header = head.substr(line, eol - line);
    constexpr std::string_view kName = "content-length:";
    bool match = header.size() > kName.size();
    for (size_t i = 0; match && i < kName.size(); ++i) {
      const char c = header[i];
      const char lower = c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
      match = lower == kName[i];
    }
    if (match) {
      for (const char c : header.substr(kName.size())) {
        if (c >= '0' && c <= '9') {
          content_length = content_length * 10 + static_cast<size_t>(c - '0');
        }
      }
    }
    line = eol == head_end ? std::string_view::npos : eol;
  }
  const size_t total = head_end + 4 + content_length;
  while (buffer_.size() < total) {
    if (!Fill()) return -1;
  }
  body->assign(buffer_, head_end + 4, content_length);
  buffer_.erase(0, total);
  return status;
}

}  // namespace perfbench
