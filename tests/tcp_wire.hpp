// Loopback TCP helpers shared by the rtpd and rtprouter transport tests: a
// blocking line client dialed through io::dial_tcp, and probes that read
// socket options back on both ends of a connection.  The servers under test
// run in the test process, so the accepted end of a connection is an fd of
// this process too and can be found by its address pair.
#pragma once

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "service/io.hpp"

namespace rtp::tcp_wire {

/// TCP_NODELAY as getsockopt reads it back: 1 set, 0 clear, -1 no socket.
inline int nodelay(int fd) {
  int value = 0;
  socklen_t len = sizeof(value);
  if (::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &value, &len) != 0) return -1;
  return value != 0 ? 1 : 0;
}

inline bool same_endpoint(const sockaddr_in& a, const sockaddr_in& b) {
  return a.sin_port == b.sin_port && a.sin_addr.s_addr == b.sin_addr.s_addr;
}

/// The fd of this process at the other end of loopback connection `fd`,
/// or -1 when the peer lives elsewhere.
inline int peer_fd(int fd) {
  sockaddr_in local{}, remote{};
  socklen_t len = sizeof(local);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&local), &len) != 0) return -1;
  len = sizeof(remote);
  if (::getpeername(fd, reinterpret_cast<sockaddr*>(&remote), &len) != 0) return -1;
  for (int candidate = 0; candidate < 4096; ++candidate) {
    if (candidate == fd) continue;
    sockaddr_in name{}, peer{};
    socklen_t n = sizeof(name);
    if (::getsockname(candidate, reinterpret_cast<sockaddr*>(&name), &n) != 0) continue;
    n = sizeof(peer);
    if (::getpeername(candidate, reinterpret_cast<sockaddr*>(&peer), &n) != 0) continue;
    if (same_endpoint(name, remote) && same_endpoint(peer, local)) return candidate;
  }
  return -1;
}

/// Blocking line client over io::dial_tcp.  send_raw writes its payload in
/// one call, so a test controls what may share a segment but asserts only
/// on the reply sequence.
class WireClient {
 public:
  explicit WireClient(std::uint16_t port) : fd_(dial(port)), reader_(fd_) {}
  ~WireClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  int fd() const { return fd_; }

  void send_raw(const std::string& payload) {
    EXPECT_TRUE(io::send_all(fd_, payload.data(), payload.size()).ok());
  }

  /// Next reply line; "" once the server has closed the connection.
  std::string read_line() {
    std::string line;
    return reader_.read_line(&line, 1 << 20).ok() ? line : std::string();
  }

  /// Every reply line until the server closes the connection.
  std::vector<std::string> read_until_closed() {
    std::vector<std::string> lines;
    std::string line;
    while (reader_.read_line(&line, 1 << 20).ok()) lines.push_back(line);
    return lines;
  }

 private:
  static int dial(std::uint16_t port) {
    std::string error;
    const int fd = io::dial_tcp("127.0.0.1", port, 2000, &error);
    EXPECT_GE(fd, 0) << error;
    return fd;
  }

  int fd_;
  io::LineReader reader_;
};

}  // namespace rtp::tcp_wire
