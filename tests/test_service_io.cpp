// Error-path coverage for the checked I/O wrappers (src/service/io.cpp):
// EINTR storms must be retried invisibly, partial transfers looped to
// completion, zero-progress writes surfaced as ENOSPC-style failures, and
// peer-gone conditions (EPIPE, ECONNRESET, EOF) classified as Disconnected.
// Faults are injected through the SyscallHooks seam against ordinary pipe
// fds, so every branch runs deterministically with no real sockets.  The
// socket helpers and LineServer get loopback and stream tests at the end.
#include <gtest/gtest.h>

#include <cerrno>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/error.hpp"
#include "service/io.hpp"
#include "tcp_wire.hpp"

namespace rtp::io {
namespace {

/// Global fault plan consumed by the hook functions (tests are single
/// threaded; the hooks are process-global by design).
struct FaultPlan {
  int eintr_remaining = 0;   ///< fail this many calls with EINTR first
  std::size_t chunk = 0;     ///< cap each transfer at this many bytes (0 = off)
  int fail_errno = 0;        ///< then fail every call with this errno
  int calls_before_fail = 0; ///< let this many calls through first
  bool zero_progress = false;///< report 0 bytes written without an errno
  int calls = 0;             ///< observed call count
};
FaultPlan g_plan;

long faulty_write(int fd, const void* buf, std::size_t n) {
  ++g_plan.calls;
  if (g_plan.eintr_remaining > 0) {
    --g_plan.eintr_remaining;
    errno = EINTR;
    return -1;
  }
  if (g_plan.zero_progress) return 0;
  if (g_plan.fail_errno != 0 && g_plan.calls > g_plan.calls_before_fail) {
    errno = g_plan.fail_errno;
    return -1;
  }
  const std::size_t cap =
      g_plan.chunk > 0 && g_plan.chunk < n ? g_plan.chunk : n;
  return ::write(fd, buf, cap);
}

long faulty_read(int fd, void* buf, std::size_t n) {
  ++g_plan.calls;
  if (g_plan.eintr_remaining > 0) {
    --g_plan.eintr_remaining;
    errno = EINTR;
    return -1;
  }
  if (g_plan.fail_errno != 0 && g_plan.calls > g_plan.calls_before_fail) {
    errno = g_plan.fail_errno;
    return -1;
  }
  const std::size_t cap =
      g_plan.chunk > 0 && g_plan.chunk < n ? g_plan.chunk : n;
  return ::read(fd, buf, cap);
}

long faulty_send(int fd, const void* buf, std::size_t n, int) {
  return faulty_write(fd, buf, n);
}

long faulty_recv(int fd, void* buf, std::size_t n, int) {
  return faulty_read(fd, buf, n);
}

/// Installs the fault hooks for one test and restores defaults after.
class IoFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    g_plan = FaultPlan{};
    ASSERT_EQ(::pipe(fds_), 0);
    SyscallHooks hooks{};
    hooks.write_fn = faulty_write;
    hooks.read_fn = faulty_read;
    hooks.send_fn = faulty_send;
    hooks.recv_fn = faulty_recv;
    saved_ = exchange_syscall_hooks_for_tests(hooks);
  }
  void TearDown() override {
    exchange_syscall_hooks_for_tests(saved_);
    close_read();
    close_write();
  }
  void close_read() {
    if (fds_[0] >= 0) ::close(fds_[0]);
    fds_[0] = -1;
  }
  void close_write() {
    if (fds_[1] >= 0) ::close(fds_[1]);
    fds_[1] = -1;
  }
  int read_fd() const { return fds_[0]; }
  int write_fd() const { return fds_[1]; }

 private:
  int fds_[2] = {-1, -1};
  SyscallHooks saved_{};
};

TEST_F(IoFaultTest, WriteAllRetriesEintrStorm) {
  g_plan.eintr_remaining = 5;
  const std::string payload = "hello journal";
  const IoResult r = write_all(write_fd(), payload.data(), payload.size());
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.bytes, payload.size());
  EXPECT_GE(g_plan.calls, 6);  // 5 EINTRs + at least one real write

  char buffer[64];
  const IoResult rd = read_some(read_fd(), buffer, sizeof(buffer));
  ASSERT_TRUE(rd.ok());
  EXPECT_EQ(std::string(buffer, rd.bytes), payload);
}

TEST_F(IoFaultTest, WriteAllLoopsPartialWritesToCompletion) {
  g_plan.chunk = 3;  // every write syscall moves at most 3 bytes
  const std::string payload = "0123456789abcdef";
  const IoResult r = write_all(write_fd(), payload.data(), payload.size());
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.bytes, payload.size());
  EXPECT_GE(g_plan.calls, 6);  // ceil(16 / 3)

  std::string seen;
  char buffer[64];
  while (seen.size() < payload.size()) {
    const IoResult rd = read_some(read_fd(), buffer, sizeof(buffer));
    ASSERT_TRUE(rd.ok());
    seen.append(buffer, rd.bytes);
  }
  EXPECT_EQ(seen, payload);
}

TEST_F(IoFaultTest, ZeroProgressWriteFailsAsEnospc) {
  g_plan.zero_progress = true;
  const IoResult r = write_all(write_fd(), "x", 1);
  EXPECT_TRUE(r.failed());
  EXPECT_EQ(r.error, ENOSPC);
  EXPECT_EQ(r.bytes, 0u);
}

TEST_F(IoFaultTest, WriteFailureMidTransferPreservesErrnoAndProgress) {
  g_plan.chunk = 4;
  g_plan.fail_errno = EIO;
  g_plan.calls_before_fail = 2;  // two 4-byte writes land, then EIO
  const std::string payload(16, 'z');
  const IoResult r = write_all(write_fd(), payload.data(), payload.size());
  EXPECT_TRUE(r.failed());
  EXPECT_EQ(r.error, EIO);
  EXPECT_EQ(r.bytes, 8u);
}

TEST_F(IoFaultTest, SendAllMapsEpipeToDisconnected) {
  g_plan.fail_errno = EPIPE;
  const IoResult r = send_all(write_fd(), "x", 1);
  EXPECT_TRUE(r.disconnected());
}

TEST_F(IoFaultTest, SendAllMapsEagainToFailed) {
  // A send timeout (SO_SNDTIMEO on a stalled client) is a real failure the
  // server must report, not a disconnect it silently swallows.
  g_plan.fail_errno = EAGAIN;
  const IoResult r = send_all(write_fd(), "x", 1);
  EXPECT_TRUE(r.failed());
  EXPECT_EQ(r.error, EAGAIN);
}

TEST_F(IoFaultTest, ReadSomeRetriesEintrThenDeliversEof) {
  g_plan.eintr_remaining = 3;
  close_write();  // EOF on the pipe
  char buffer[8];
  const IoResult r = read_some(read_fd(), buffer, sizeof(buffer));
  EXPECT_TRUE(r.disconnected());
  EXPECT_EQ(r.bytes, 0u);
}

TEST_F(IoFaultTest, RecvSomeMapsConnresetToDisconnected) {
  g_plan.fail_errno = ECONNRESET;
  char buffer[8];
  const IoResult r = recv_some(read_fd(), buffer, sizeof(buffer));
  EXPECT_TRUE(r.disconnected());
}

TEST_F(IoFaultTest, RecvExactReportsTornFrame) {
  // 5 of 8 frame bytes arrive, then the peer vanishes: recv_exact must
  // report Disconnected with the partial count, never a short Ok.
  ASSERT_TRUE(write_all(write_fd(), "torn!", 5).ok());
  close_write();
  char buffer[8];
  const IoResult r = recv_exact(read_fd(), buffer, sizeof(buffer));
  EXPECT_TRUE(r.disconnected());
  EXPECT_EQ(r.bytes, 5u);
}

TEST_F(IoFaultTest, RecvExactAssemblesChunkedFrame) {
  g_plan.chunk = 2;  // deliver the frame 2 bytes per syscall
  const std::string payload = "framed-bytes";
  ASSERT_TRUE(write_all(write_fd(), payload.data(), payload.size()).ok());
  std::vector<char> buffer(payload.size());
  const IoResult r = recv_exact(read_fd(), buffer.data(), buffer.size());
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(std::string(buffer.data(), buffer.size()), payload);
}

TEST_F(IoFaultTest, LineReaderKeepsBytesAcrossFramingSwitch) {
  // A line and a binary frame arrive in one burst; read_line must hand the
  // surplus to read_exact (the replication handshake depends on this).
  const std::string burst = "RTPREPL1 follow seq=4\nBINARY01";
  ASSERT_TRUE(write_all(write_fd(), burst.data(), burst.size()).ok());
  LineReader reader(read_fd());
  std::string line;
  ASSERT_TRUE(reader.read_line(&line, 1024).ok());
  EXPECT_EQ(line, "RTPREPL1 follow seq=4");
  char frame[8];
  ASSERT_TRUE(reader.read_exact(frame, sizeof(frame)).ok());
  EXPECT_EQ(std::string(frame, sizeof(frame)), "BINARY01");
}

TEST_F(IoFaultTest, LineReaderRejectsOversizedLine) {
  const std::string long_line(64, 'a');
  ASSERT_TRUE(write_all(write_fd(), long_line.data(), long_line.size()).ok());
  LineReader reader(read_fd());
  std::string line;
  const IoResult r = reader.read_line(&line, 16);
  EXPECT_TRUE(r.failed());
  EXPECT_EQ(r.error, EMSGSIZE);
}

TEST(IoSplitHostport, ParsesAndRejects) {
  std::string host, error;
  std::uint16_t port = 0;
  EXPECT_TRUE(split_hostport("127.0.0.1:7421", &host, &port, &error));
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 7421);

  EXPECT_TRUE(split_hostport("localhost:1", &host, &port, &error));
  EXPECT_EQ(host, "localhost");
  EXPECT_EQ(port, 1);

  EXPECT_FALSE(split_hostport("no-port-here", &host, &port, &error));
  EXPECT_FALSE(split_hostport("host:", &host, &port, &error));
  EXPECT_FALSE(split_hostport(":123", &host, &port, &error));
  EXPECT_FALSE(split_hostport("host:0", &host, &port, &error));
  EXPECT_FALSE(split_hostport("host:65536", &host, &port, &error));
  EXPECT_FALSE(split_hostport("host:12ab", &host, &port, &error));
}

TEST(IoDescribe, NamesTheErrno) {
  IoResult r;
  r.status = IoStatus::Failed;
  r.error = ENOSPC;
  const std::string text = describe(r);
  EXPECT_NE(text.find(std::strerror(ENOSPC)), std::string::npos);
}

TEST(IoTcp, DialedAndAcceptedSocketsHaveNodelay) {
  std::uint16_t port = 0;
  const int listener = listen_loopback(0, &port);
  ASSERT_GT(port, 0);
  std::string error;
  const int dialed = dial_tcp("127.0.0.1", port, 2000, &error);
  ASSERT_GE(dialed, 0) << error;
  const int dialed_rcvtimeo = dial_tcp_rcvtimeo("localhost", port, 2000, 500, &error);
  ASSERT_GE(dialed_rcvtimeo, 0) << error;
  const int accepted = accept_tcp(listener);
  const int accepted_second = accept_tcp(listener);
  ASSERT_GE(accepted, 0);
  ASSERT_GE(accepted_second, 0);
  for (const int fd : {dialed, dialed_rcvtimeo, accepted, accepted_second}) {
    EXPECT_EQ(tcp_wire::nodelay(fd), 1) << "fd " << fd;
    ::close(fd);
  }
  ::close(listener);
}

TEST(IoTcp, ListenLoopbackRefusesAPortInUse) {
  std::uint16_t port = 0;
  const int listener = listen_loopback(0, &port);
  std::uint16_t again = 0;
  EXPECT_THROW(listen_loopback(port, &again), rtp::Error);
  ::close(listener);
}

/// Echoes "<line number>:<line>", skips blank lines, stops at "QUIT".
std::string numbered(std::string_view line, std::size_t line_number, bool* quit) {
  if (line.empty()) return {};
  if (line == "QUIT") *quit = true;
  return std::to_string(line_number) + ":" + std::string(line);
}

TEST(IoLineServer, StreamNumbersEveryLineAndStopsAtQuit) {
  LineServer server({"test", "test"}, numbered, [] { return std::string("hello"); });
  std::istringstream in("a\r\n\nb\nQUIT\nc\n");
  std::ostringstream out;
  server.serve_stream(in, out);
  // \r is the stream's to keep; the TCP loop strips it (see below).
  EXPECT_EQ(out.str(), "hello\n1:a\r\n3:b\n4:QUIT\n");
}

TEST(IoLineServer, TcpBatchKeepsNumbersAndShedsPastTheConnectionLimit) {
  LineServerOptions options{"test", "tester"};
  options.max_connections = 1;
  LineServer server(options, numbered, LineServer::Greeter());
  const std::uint16_t port = server.listen_on(0);
  std::thread serving([&server] { server.serve(); });
  {
    tcp_wire::WireClient admitted(port);
    admitted.send_raw("a\r\n\nb");
    EXPECT_EQ(admitted.read_line(), "1:a");
    tcp_wire::WireClient shed(port);
    EXPECT_EQ(shed.read_line(), "ERR line=0 code=busy msg=tester at connection limit; retry");
    EXPECT_EQ(shed.read_line(), "");  // closed
    admitted.send_raw("\nQUIT\nc\n");
    EXPECT_EQ(admitted.read_until_closed(), (std::vector<std::string>{"3:b", "4:QUIT"}));
  }
  EXPECT_EQ(server.shed_connections(), 1u);
  server.shutdown();
  serving.join();
}

}  // namespace
}  // namespace rtp::io
