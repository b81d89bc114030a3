// Checked POSIX I/O wrappers for the service layer.
//
// Every raw ::read/::write/::send/::recv in the daemon goes through these
// helpers (the rtlint `raw-io` rule enforces it): they retry EINTR, loop
// partial writes to completion, and classify errno into the three outcomes
// a server actually cares about — success, a client that went away
// (EPIPE / ECONNRESET / orderly EOF, which is routine and must not be
// logged as a server error), and a real failure (ENOSPC, EIO, a send
// timeout on a slow client) whose errno is preserved for the caller's
// structured error message.
//
// Every TCP socket is made here too (the rtlint `raw-socket` rule enforces
// it), so every one of them gets TCP_NODELAY: the protocols are request /
// reply over complete lines, and Nagle's algorithm would hold a pipelined
// reply until the peer's delayed ACK.  LineServer is the one line-serving
// loop behind rtpd and rtprouter.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>

#include "core/thread_pool.hpp"

namespace rtp::io {

enum class IoStatus {
  Ok,            ///< full transfer completed
  Disconnected,  ///< peer closed the connection (EOF, EPIPE, ECONNRESET)
  Failed,        ///< real error; `error` holds errno
};

struct IoResult {
  IoStatus status = IoStatus::Ok;
  int error = 0;          ///< errno when status == Failed
  std::size_t bytes = 0;  ///< bytes actually transferred

  bool ok() const { return status == IoStatus::Ok; }
  bool disconnected() const { return status == IoStatus::Disconnected; }
  bool failed() const { return status == IoStatus::Failed; }
};

/// strerror(result.error) with the errno name-ish prefix, for messages.
std::string describe(const IoResult& result);

/// Write all `n` bytes to a file descriptor (regular file or pipe),
/// retrying EINTR and short writes.  A zero-progress write is reported as
/// Failed (ENOSPC behaves this way on some filesystems).
IoResult write_all(int fd, const char* data, std::size_t n);

/// Read up to `n` bytes; retries EINTR.  bytes == 0 with Disconnected
/// means end-of-file.
IoResult read_some(int fd, char* buffer, std::size_t n);

/// Socket send of all `n` bytes with MSG_NOSIGNAL, retrying EINTR and
/// partial sends.  EPIPE/ECONNRESET map to Disconnected; EAGAIN (an
/// SO_SNDTIMEO write timeout on a slow client) maps to Failed.
IoResult send_all(int fd, const char* data, std::size_t n);

/// Socket receive of up to `n` bytes; retries EINTR.  Orderly shutdown and
/// ECONNRESET map to Disconnected.
IoResult recv_some(int fd, char* buffer, std::size_t n);

/// Socket receive of exactly `n` bytes (loops recv_some).  Disconnected
/// with bytes < n means the peer went away mid-transfer — a torn frame.
IoResult recv_exact(int fd, char* buffer, std::size_t n);

/// fsync(fd), retrying EINTR.  Returns Ok or Failed.
IoResult fsync_fd(int fd);

/// Split "host:port" (host may be "localhost" or a dotted IPv4 address).
/// Returns false with *error set on a malformed address.
bool split_hostport(std::string_view address, std::string* host,
                    std::uint16_t* port, std::string* error);

/// Connect a TCP socket to host:port with a bounded connect timeout
/// (non-blocking connect + poll), with TCP_NODELAY set.  Returns the
/// connected fd, or -1 with *error describing the failure.  timeout_ms == 0
/// waits indefinitely.
int dial_tcp(const std::string& host, std::uint16_t port,
             std::uint32_t timeout_ms, std::string* error);

/// Bind a TCP listener on 127.0.0.1:`port` (0 picks an ephemeral port) and
/// store the bound port in *bound_port.  Throws rtp::Error on failure.
int listen_loopback(std::uint16_t port, std::uint16_t* bound_port);

/// Accept one connection with TCP_NODELAY set.  Returns -1 with errno from
/// accept(2) on failure.
int accept_tcp(int listener);

/// dial_tcp plus an SO_RCVTIMEO receive deadline on the connected socket,
/// the client-side idiom shared by ServiceClient, the replication follower
/// and the router's backend pools: a peer that stops answering surfaces as
/// a recv failure (EAGAIN) instead of a hang.  recv_timeout_ms == 0 leaves
/// the socket blocking without a deadline.
int dial_tcp_rcvtimeo(const std::string& host, std::uint16_t port,
                      std::uint32_t connect_timeout_ms,
                      std::uint32_t recv_timeout_ms, std::string* error);

/// Buffered reader over a socket fd for protocols that mix newline-framed
/// lines with length-prefixed binary frames (the replication handshake).
/// Bytes received past a line's newline are kept and handed to the next
/// read_line/read_exact call, so switching framing mid-stream loses
/// nothing.  Not thread-safe; does not own the fd.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  /// Read one '\n'-terminated line (newline stripped, trailing '\r' too).
  /// Failed with errno EMSGSIZE when the line exceeds `max_bytes`.
  IoResult read_line(std::string* line, std::size_t max_bytes);

  /// Read exactly `n` bytes, draining the internal buffer first.
  IoResult read_exact(char* buffer, std::size_t n);

 private:
  int fd_;
  std::string buffer_;
};

struct LineServerOptions {
  /// Log prefix ("rtpd", "rtprouter").
  std::string name;
  /// Greets a connection refused at the limit: "<refusal> at connection
  /// limit; retry".
  std::string refusal;
  /// Connection worker threads (0 = hardware concurrency).
  std::size_t threads = 2;
  /// Simultaneous connections; excess ones get a busy error and are closed
  /// before anything is read.  0 = no limit.
  std::size_t max_connections = 64;
  /// SO_SNDTIMEO: a client that stops draining replies this long is
  /// dropped.  0 = kernel default.
  std::uint32_t write_timeout_ms = 5000;
  /// A partial line longer than this without a newline gets a parse error
  /// and the connection is closed (bounds the reassembly buffer).  0 = no
  /// limit.
  std::size_t max_line_bytes = 64 * 1024;
};

/// The newline-framed request loop shared by rtpd and rtprouter, over a
/// loopback TCP listener or a stream pair.  Each complete line goes to the
/// handler with its 1-based line number (counted across reads); a non-empty
/// return is the reply.  On TCP the replies to all complete lines of one
/// recv leave in a single write, so pipelined requests cost one segment
/// per batch rather than one per reply.  A line that sets *quit is the last
/// one served.
class LineServer {
 public:
  using Handler =
      std::function<std::string(std::string_view line, std::size_t line_number, bool* quit)>;
  /// Returns the greeting line (no newline); an empty function disables it.
  using Greeter = std::function<std::string()>;

  LineServer(LineServerOptions options, Handler handler, Greeter greeter);
  ~LineServer() { shutdown(); }

  LineServer(const LineServer&) = delete;
  LineServer& operator=(const LineServer&) = delete;

  /// Stream mode.  Each reply is flushed as it is written, so a consumer
  /// (or a crash harness) sees every acknowledged request immediately.
  void serve_stream(std::istream& in, std::ostream& out);

  /// Bind 127.0.0.1:`port` (0 = ephemeral); returns the bound port.
  std::uint16_t listen_on(std::uint16_t port);
  /// Accept loop; blocks until shutdown(), then waits for open connections.
  void serve();
  /// Stop the accept loop and close the listener (any thread, idempotent).
  void shutdown();

  /// Connections refused at max_connections.
  std::uint64_t shed_connections() const {
    return shed_connections_.load(std::memory_order_relaxed);
  }
  /// Connections closed for an overlong newline-free line.
  std::uint64_t overflows() const { return overflows_.load(std::memory_order_relaxed); }

 private:
  void serve_connection(int fd);
  bool send_text(int fd, const std::string& text);

  LineServerOptions options_;
  Handler handler_;
  Greeter greeter_;
  ThreadPool pool_;
  std::atomic<std::size_t> connections_{0};
  std::atomic<std::uint64_t> shed_connections_{0};
  std::atomic<std::uint64_t> overflows_{0};
  // Written by shutdown() from any thread while serve() reads it; -1 means
  // "not listening".
  std::atomic<int> listen_fd_{-1};
  std::atomic<bool> stopping_{false};
};

/// Test seam: the syscalls the wrappers above sit on, swappable so tests
/// can inject EINTR storms, short transfers, zero-progress writes and
/// errno faults against ordinary pipe fds.  Production code never touches
/// this; the hooks are plain pointers and must only be swapped while no
/// other thread is inside rtp::io.
struct SyscallHooks {
  long (*write_fn)(int fd, const void* buf, std::size_t n);
  long (*read_fn)(int fd, void* buf, std::size_t n);
  long (*send_fn)(int fd, const void* buf, std::size_t n, int flags);
  long (*recv_fn)(int fd, void* buf, std::size_t n, int flags);
  int (*fsync_fn)(int fd);
};

/// Swap the active hooks, returning the previous set (restore in teardown).
/// Null members in `hooks` keep the defaults.
SyscallHooks exchange_syscall_hooks_for_tests(const SyscallHooks& hooks);

}  // namespace rtp::io
