#include "service/io.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <istream>
#include <ostream>
#include <utility>

#include "core/error.hpp"
#include "core/log.hpp"
#include "service/protocol.hpp"

namespace rtp::io {
namespace {

// Default syscall hooks: thin forwarders to the real POSIX calls.  The
// checked wrappers below only ever go through these pointers so tests can
// swap in fault-injecting versions (see exchange_syscall_hooks_for_tests).

long default_write(int fd, const void* buf, std::size_t n) {
  // rtlint: allow(raw-io) this IS the checked wrapper's backing ::write
  return ::write(fd, buf, n);
}

long default_read(int fd, void* buf, std::size_t n) {
  // rtlint: allow(raw-io) this IS the checked wrapper's backing ::read
  return ::read(fd, buf, n);
}

long default_send(int fd, const void* buf, std::size_t n, int flags) {
  // rtlint: allow(raw-io) this IS the checked wrapper's backing ::send
  return ::send(fd, buf, n, flags);
}

long default_recv(int fd, void* buf, std::size_t n, int flags) {
  // rtlint: allow(raw-io) this IS the checked wrapper's backing ::recv
  return ::recv(fd, buf, n, flags);
}

int default_fsync(int fd) { return ::fsync(fd); }

SyscallHooks g_hooks = {default_write, default_read, default_send, default_recv,
                        default_fsync};

IoResult failure(std::size_t bytes) {
  IoResult r;
  r.status = IoStatus::Failed;
  r.error = errno;
  r.bytes = bytes;
  return r;
}

IoResult disconnect(std::size_t bytes) {
  IoResult r;
  r.status = IoStatus::Disconnected;
  r.bytes = bytes;
  return r;
}

// Best-effort: a socket without it still works, only slower.
void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

SyscallHooks exchange_syscall_hooks_for_tests(const SyscallHooks& hooks) {
  const SyscallHooks previous = g_hooks;
  if (hooks.write_fn != nullptr) g_hooks.write_fn = hooks.write_fn;
  else g_hooks.write_fn = default_write;
  if (hooks.read_fn != nullptr) g_hooks.read_fn = hooks.read_fn;
  else g_hooks.read_fn = default_read;
  if (hooks.send_fn != nullptr) g_hooks.send_fn = hooks.send_fn;
  else g_hooks.send_fn = default_send;
  if (hooks.recv_fn != nullptr) g_hooks.recv_fn = hooks.recv_fn;
  else g_hooks.recv_fn = default_recv;
  if (hooks.fsync_fn != nullptr) g_hooks.fsync_fn = hooks.fsync_fn;
  else g_hooks.fsync_fn = default_fsync;
  return previous;
}

std::string describe(const IoResult& result) {
  switch (result.status) {
    case IoStatus::Ok: return "ok";
    case IoStatus::Disconnected: return "peer disconnected";
    case IoStatus::Failed: return std::strerror(result.error);
  }
  return "unknown";
}

IoResult write_all(int fd, const char* data, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const long w = g_hooks.write_fn(fd, data + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE) return disconnect(off);
      return failure(off);
    }
    if (w == 0) {
      // No progress and no error: treat as a failed (short) write so the
      // caller reports it instead of spinning.
      errno = ENOSPC;
      return failure(off);
    }
    off += static_cast<std::size_t>(w);
  }
  IoResult r;
  r.bytes = off;
  return r;
}

IoResult read_some(int fd, char* buffer, std::size_t n) {
  for (;;) {
    const long r = g_hooks.read_fn(fd, buffer, n);
    if (r < 0) {
      if (errno == EINTR) continue;
      return failure(0);
    }
    if (r == 0) return disconnect(0);
    IoResult out;
    out.bytes = static_cast<std::size_t>(r);
    return out;
  }
}

IoResult send_all(int fd, const char* data, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const long s = g_hooks.send_fn(fd, data + off, n - off, MSG_NOSIGNAL);
    if (s < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) return disconnect(off);
      return failure(off);
    }
    if (s == 0) {
      errno = EPIPE;
      return disconnect(off);
    }
    off += static_cast<std::size_t>(s);
  }
  IoResult r;
  r.bytes = off;
  return r;
}

IoResult recv_some(int fd, char* buffer, std::size_t n) {
  for (;;) {
    const long r = g_hooks.recv_fn(fd, buffer, n, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == ECONNRESET) return disconnect(0);
      return failure(0);
    }
    if (r == 0) return disconnect(0);
    IoResult out;
    out.bytes = static_cast<std::size_t>(r);
    return out;
  }
}

IoResult recv_exact(int fd, char* buffer, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    IoResult r = recv_some(fd, buffer + off, n - off);
    if (!r.ok()) {
      r.bytes = off;
      return r;
    }
    off += r.bytes;
  }
  IoResult r;
  r.bytes = off;
  return r;
}

IoResult fsync_fd(int fd) {
  for (;;) {
    if (g_hooks.fsync_fn(fd) == 0) return {};
    if (errno != EINTR) return failure(0);
  }
}

bool split_hostport(std::string_view address, std::string* host,
                    std::uint16_t* port, std::string* error) {
  const std::size_t colon = address.rfind(':');
  if (colon == std::string_view::npos || colon == 0 || colon + 1 == address.size()) {
    *error = "expected host:port, got '" + std::string(address) + "'";
    return false;
  }
  const std::string_view port_text = address.substr(colon + 1);
  unsigned long value = 0;
  for (const char c : port_text) {
    if (c < '0' || c > '9') {
      *error = "bad port in '" + std::string(address) + "'";
      return false;
    }
    value = value * 10 + static_cast<unsigned long>(c - '0');
    if (value > 65535) {
      *error = "port out of range in '" + std::string(address) + "'";
      return false;
    }
  }
  if (value == 0) {
    *error = "port must be positive in '" + std::string(address) + "'";
    return false;
  }
  *host = std::string(address.substr(0, colon));
  *port = static_cast<std::uint16_t>(value);
  return true;
}

int dial_tcp(const std::string& host, std::uint16_t port,
             std::uint32_t timeout_ms, std::string* error) {
  const std::string numeric = host == "localhost" ? "127.0.0.1" : host;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, numeric.c_str(), &addr.sin_addr) != 1) {
    *error = "unresolvable host '" + host + "' (dotted IPv4 or localhost)";
    return -1;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  set_nodelay(fd);
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    *error = std::string("fcntl: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno != EINPROGRESS) {
      *error = std::string("connect: ") + std::strerror(errno);
      ::close(fd);
      return -1;
    }
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLOUT;
    const int timeout = timeout_ms == 0 ? -1 : static_cast<int>(timeout_ms);
    int ready;
    do {
      ready = ::poll(&pfd, 1, timeout);
    } while (ready < 0 && errno == EINTR);
    if (ready <= 0) {
      *error = ready == 0 ? "connect timed out"
                          : std::string("poll: ") + std::strerror(errno);
      ::close(fd);
      return -1;
    }
    int soerr = 0;
    socklen_t len = sizeof(soerr);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &len) != 0 || soerr != 0) {
      *error = std::string("connect: ") + std::strerror(soerr != 0 ? soerr : errno);
      ::close(fd);
      return -1;
    }
  }
  if (::fcntl(fd, F_SETFL, flags) != 0) {
    *error = std::string("fcntl: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

int listen_loopback(std::uint16_t port, std::uint16_t* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  RTP_CHECK(fd >= 0, std::string("socket: ") + std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  socklen_t len = sizeof(addr);
  const char* step = nullptr;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
    step = "bind";
  else if (::listen(fd, 16) != 0)
    step = "listen";
  else if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    step = "getsockname";
  if (step != nullptr) {
    const std::string reason = std::strerror(errno);
    ::close(fd);
    fail(std::string(step) + " 127.0.0.1:" + std::to_string(port) + ": " + reason);
  }
  *bound_port = ntohs(addr.sin_port);
  return fd;
}

int accept_tcp(int listener) {
  const int fd = ::accept(listener, nullptr, nullptr);
  if (fd >= 0) set_nodelay(fd);
  return fd;
}

int dial_tcp_rcvtimeo(const std::string& host, std::uint16_t port,
                      std::uint32_t connect_timeout_ms,
                      std::uint32_t recv_timeout_ms, std::string* error) {
  const int fd = dial_tcp(host, port, connect_timeout_ms, error);
  if (fd < 0) return -1;
  if (recv_timeout_ms > 0) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(recv_timeout_ms / 1000);
    tv.tv_usec = static_cast<suseconds_t>(recv_timeout_ms % 1000) * 1000;
    if (::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
      *error = std::string("setsockopt(SO_RCVTIMEO): ") + std::strerror(errno);
      ::close(fd);
      return -1;
    }
  }
  return fd;
}

IoResult LineReader::read_line(std::string* line, std::size_t max_bytes) {
  line->clear();
  for (;;) {
    const std::size_t pos = buffer_.find('\n');
    if (pos != std::string::npos) {
      *line = buffer_.substr(0, pos);
      buffer_.erase(0, pos + 1);
      if (!line->empty() && line->back() == '\r') line->pop_back();
      IoResult r;
      r.bytes = line->size();
      return r;
    }
    if (buffer_.size() > max_bytes) {
      errno = EMSGSIZE;
      return failure(buffer_.size());
    }
    char chunk[4096];
    const IoResult r = recv_some(fd_, chunk, sizeof(chunk));
    if (!r.ok()) return r;
    buffer_.append(chunk, r.bytes);
  }
}

IoResult LineReader::read_exact(char* buffer, std::size_t n) {
  std::size_t off = 0;
  if (!buffer_.empty()) {
    off = buffer_.size() < n ? buffer_.size() : n;
    std::memcpy(buffer, buffer_.data(), off);
    buffer_.erase(0, off);
  }
  if (off == n) {
    IoResult r;
    r.bytes = n;
    return r;
  }
  IoResult r = recv_exact(fd_, buffer + off, n - off);
  r.bytes += off;
  return r;
}

LineServer::LineServer(LineServerOptions options, Handler handler, Greeter greeter)
    : options_(std::move(options)),
      handler_(std::move(handler)),
      greeter_(std::move(greeter)),
      pool_(options_.threads) {}

void LineServer::serve_stream(std::istream& in, std::ostream& out) {
  if (greeter_) out << greeter_() << "\n" << std::flush;
  std::string line;
  std::size_t line_number = 0;
  bool quit = false;
  while (!quit && std::getline(in, line)) {
    const std::string reply = handler_(line, ++line_number, &quit);
    // Flush per reply: an acknowledged (journaled) event must be visible to
    // the consumer even if the process dies before the next line.
    if (!reply.empty()) out << reply << "\n" << std::flush;
  }
  out.flush();
}

std::uint16_t LineServer::listen_on(std::uint16_t port) {
  RTP_CHECK(listen_fd_.load() < 0, options_.name + " is already listening");
  std::uint16_t bound = 0;
  listen_fd_.store(listen_loopback(port, &bound));
  return bound;
}

void LineServer::serve() {
  RTP_CHECK(listen_fd_.load() >= 0, "serve() requires listen_on() first");
  while (!stopping_.load()) {
    const int listener = listen_fd_.load();
    if (listener < 0) break;  // shutdown() already closed it
    const int client = accept_tcp(listener);
    if (client < 0) {
      if (stopping_.load() || errno == EBADF || errno == EINVAL) break;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      log_warn(options_.name, " accept: ", std::strerror(errno));
      break;
    }
    // Connection admission: beyond the limit, greet with a busy error and
    // close — the client learns to back off instead of hanging.  Every
    // connection is counted first (no short-circuit), so each exit path
    // below gives back exactly one.
    if (connections_.fetch_add(1, std::memory_order_relaxed) >= options_.max_connections &&
        options_.max_connections > 0) {
      connections_.fetch_sub(1, std::memory_order_relaxed);
      shed_connections_.fetch_add(1, std::memory_order_relaxed);
      const std::string busy =
          format_error(0, ProtocolErrorCode::Busy,
                       options_.refusal + " at connection limit; retry") +
          "\n";
      send_all(client, busy.data(), busy.size());  // best-effort
      ::close(client);
      continue;
    }
    pool_.submit([this, client] {
      try {
        serve_connection(client);
      } catch (const std::exception& e) {
        // The pool requires non-throwing tasks; a broken client connection
        // must not take the server down.
        log_warn(options_.name, " connection error: ", e.what());
      }
      ::close(client);
      connections_.fetch_sub(1, std::memory_order_relaxed);
    });
  }
  pool_.wait_idle();
}

void LineServer::shutdown() {
  stopping_.store(true);
  // exchange() so concurrent shutdown() calls close the listener once.
  const int fd = listen_fd_.exchange(-1);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

bool LineServer::send_text(int fd, const std::string& text) {
  const IoResult r = send_all(fd, text.data(), text.size());
  if (r.failed()) log_warn(options_.name, " send: ", describe(r));
  return r.ok();  // Disconnected ends the connection quietly
}

void LineServer::serve_connection(int fd) {
  // A client that stops draining replies blocks our send; bound the stall
  // so one slow reader cannot pin a worker forever.
  if (options_.write_timeout_ms > 0) {
    timeval tv{};
    tv.tv_sec = options_.write_timeout_ms / 1000;
    tv.tv_usec = static_cast<suseconds_t>((options_.write_timeout_ms % 1000) * 1000);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  if (greeter_ && !send_text(fd, greeter_() + "\n")) return;

  std::string buffer;   // bytes of the line still incomplete after a recv
  std::string replies;  // every reply to one recv's complete lines
  std::size_t line_number = 0;
  bool quit = false;
  char chunk[4096];
  while (!quit) {
    const IoResult r = recv_some(fd, chunk, sizeof(chunk));
    if (!r.ok()) {
      if (r.failed()) log_warn(options_.name, " recv: ", describe(r));
      return;  // disconnect (or shutdown closing the socket)
    }
    buffer.append(chunk, r.bytes);
    std::size_t start = 0;
    for (std::size_t end; !quit && (end = buffer.find('\n', start)) != std::string::npos;
         start = end + 1) {
      std::string_view line(buffer.data() + start, end - start);
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      const std::string reply = handler_(line, ++line_number, &quit);
      if (!reply.empty()) replies.append(reply).push_back('\n');
    }
    buffer.erase(0, start);
    // A newline-free flood must not grow the reassembly buffer without
    // bound: answer the complete lines, then a parse error, and close.
    const bool overflow =
        !quit && options_.max_line_bytes > 0 && buffer.size() > options_.max_line_bytes;
    if (overflow) {
      overflows_.fetch_add(1, std::memory_order_relaxed);
      replies += format_error(line_number + 1, ProtocolErrorCode::Parse,
                              "line exceeds " + std::to_string(options_.max_line_bytes) +
                                  " bytes without a newline") +
                 "\n";
    }
    if (!replies.empty() && !send_text(fd, replies)) return;
    if (overflow) return;
    replies.clear();
  }
}

}  // namespace rtp::io
