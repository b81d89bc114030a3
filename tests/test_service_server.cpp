// ServiceServer request loop: stream-mode dialogues, STATS reporting, a
// TCP loopback smoke test with concurrent clients, and the TCP line loop's
// framing contract (TCP_NODELAY on both ends, QUIT inside a pipelined
// write, line numbers across reads, replies flushed before an overflow).
#include "service/server.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "predict/simple.hpp"
#include "sched/policy.hpp"
#include "service/session.hpp"
#include "tcp_wire.hpp"

namespace rtp {
namespace {

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

TEST(ServiceServerStream, DialogueAnswersOnePerRequestLine) {
  ConstantPredictor predictor(600.0);
  const auto policy = make_policy(PolicyKind::Fcfs);
  OnlineSession session(8, *policy, predictor);
  ServiceServer server(session);

  std::istringstream in(
      "HELLO RTP/1\n"
      "# a comment the server must ignore\n"
      "SUBMIT 0 0 8 120 600\n"
      "START 0 0\n"
      "SUBMIT 5 1 4 60 600\n"
      "ESTIMATE 1\n"
      "ESTIMATE 1\n"
      "INTERVAL 1\n"
      "STATE\n"
      "STATS\n"
      "QUIT\n"
      "STATE\n");  // after QUIT: must not be served
  std::ostringstream out;
  server.serve_stream(in, out);

  const std::vector<std::string> replies = lines_of(out.str());
  ASSERT_EQ(replies.size(), 11u);  // greeting + 10 request lines, nothing after QUIT
  EXPECT_EQ(replies[0], server.greeting());
  EXPECT_TRUE(replies[0].rfind("RTP/1 ready nodes=8", 0) == 0) << replies[0];
  EXPECT_EQ(replies[1], "OK proto=" + std::string(kProtocolVersion));
  EXPECT_EQ(replies[2], "OK version=1");  // SUBMIT bumps the state version
  EXPECT_EQ(replies[3], "OK version=2");  // START
  EXPECT_EQ(replies[4], "OK version=3");  // SUBMIT

  // Job 0 holds all 8 nodes for 600 s (the constant estimate); job 1 waits.
  EXPECT_EQ(replies[5], "OK job=1 wait=595 start=600 cached=0");
  EXPECT_EQ(replies[6], "OK job=1 wait=595 start=600 cached=1");
  EXPECT_TRUE(replies[7].rfind("OK job=1 wait=595 optimistic=", 0) == 0) << replies[7];
  EXPECT_EQ(replies[8], "OK now=5 version=3 nodes=8 free=0 down=0 running=1 queued=1");
  EXPECT_TRUE(replies[9].rfind("OK requests=9", 0) == 0) << replies[9];
  EXPECT_NE(replies[9].find(" cache_hits=1 "), std::string::npos) << replies[9];
  EXPECT_EQ(replies[10], "OK bye");

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, 10u);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.request_latency_us.count(), 10u);
  EXPECT_EQ(stats.estimate_latency_us.count(), 3u);  // ESTIMATE x2 + INTERVAL
  EXPECT_GT(stats.request_latency_us.max(), 0.0);
}

TEST(ServiceServerStream, GreetingCanBeSuppressed) {
  ConstantPredictor predictor(60.0);
  const auto policy = make_policy(PolicyKind::Fcfs);
  OnlineSession session(4, *policy, predictor);
  ServerOptions options;
  options.greeting = false;
  ServiceServer server(session, options);

  std::istringstream in("STATE\n");
  std::ostringstream out;
  server.serve_stream(in, out);
  const std::vector<std::string> replies = lines_of(out.str());
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_TRUE(replies[0].rfind("OK now=0", 0) == 0) << replies[0];
}

// Minimal blocking line client for the loopback test.
class LineClient {
 public:
  explicit LineClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
        << "connect failed";
  }
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send_line(const std::string& line) {
    const std::string payload = line + "\n";
    std::size_t sent = 0;
    while (sent < payload.size()) {
      const ssize_t n = ::send(fd_, payload.data() + sent, payload.size() - sent, 0);
      ASSERT_GT(n, 0);
      sent += static_cast<std::size_t>(n);
    }
  }

  std::string read_line() {
    std::string line;
    char c = 0;
    while (true) {
      const ssize_t n = ::recv(fd_, &c, 1, 0);
      if (n <= 0) return line;  // peer closed
      if (c == '\n') return line;
      if (c != '\r') line.push_back(c);
    }
  }

 private:
  int fd_ = -1;
};

TEST(ServiceServerTcp, LoopbackClientsShareOneSession) {
  ConstantPredictor predictor(600.0);
  const auto policy = make_policy(PolicyKind::Fcfs);
  OnlineSession session(8, *policy, predictor);
  ServerOptions options;
  options.threads = 2;
  ServiceServer server(session, options);

  const std::uint16_t port = server.listen_on(0);
  ASSERT_GT(port, 0);
  std::thread accept_thread([&server] { server.serve(); });

  {
    // First client submits and starts a job...
    LineClient feeder(port);
    EXPECT_EQ(feeder.read_line(), server.greeting());
    feeder.send_line("SUBMIT 0 0 8 120 600");
    EXPECT_EQ(feeder.read_line(), "OK version=1");
    feeder.send_line("START 0 0");
    EXPECT_EQ(feeder.read_line(), "OK version=2");
    feeder.send_line("SUBMIT 5 1 4 60 600");
    EXPECT_EQ(feeder.read_line(), "OK version=3");

    // ...and a second, concurrent client sees that state and queries it.
    LineClient querier(port);
    EXPECT_EQ(querier.read_line(), server.greeting());
    querier.send_line("ESTIMATE 1");
    EXPECT_EQ(querier.read_line(), "OK job=1 wait=595 start=600 cached=0");
    querier.send_line("STATE");
    EXPECT_EQ(querier.read_line(),
              "OK now=5 version=3 nodes=8 free=0 down=0 running=1 queued=1");
    querier.send_line("QUIT");
    EXPECT_EQ(querier.read_line(), "OK bye");

    feeder.send_line("QUIT");
    EXPECT_EQ(feeder.read_line(), "OK bye");
  }

  server.shutdown();
  accept_thread.join();

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, 7u);
  EXPECT_EQ(stats.errors, 0u);
}

/// An rtpd-shaped server on an ephemeral loopback port, served from its own
/// thread: the FCFS/constant-600 s setup the stream tests use.
struct TcpServer {
  explicit TcpServer(ServerOptions options = {})
      : policy(make_policy(PolicyKind::Fcfs)),
        predictor(600.0),
        session(8, *policy, predictor),
        server(session, options),
        port(server.listen_on(0)),
        thread([this] { server.serve(); }) {}
  ~TcpServer() {
    server.shutdown();
    thread.join();
  }

  std::unique_ptr<SchedulerPolicy> policy;
  ConstantPredictor predictor;
  OnlineSession session;
  ServiceServer server;
  std::uint16_t port;
  std::thread thread;
};

TEST(ServiceServerTcp, NodelayIsSetOnTheAcceptedAndTheDialedSocket) {
  TcpServer tcp;
  tcp_wire::WireClient client(tcp.port);
  // The greeting proves the connection was accepted and is being served.
  EXPECT_EQ(client.read_line(), tcp.server.greeting());
  EXPECT_EQ(tcp_wire::nodelay(client.fd()), 1) << "io::dial_tcp side";
  const int accepted = tcp_wire::peer_fd(client.fd());
  ASSERT_GE(accepted, 0) << "the server's end of the connection";
  EXPECT_EQ(tcp_wire::nodelay(accepted), 1) << "accepted side";
}

TEST(ServiceServerTcp, QuitInsideOneWriteIsTheLastLineServed) {
  // The TCP twin of DialogueAnswersOnePerRequestLine: the whole dialogue in
  // one write, so the lines after QUIT may arrive in the same recv.  They
  // must not run, and the replies must equal the stream mode's.
  const std::string dialogue =
      "HELLO RTP/1\n"
      "# a comment the server must ignore\n"
      "SUBMIT 0 0 8 120 600\n"
      "START 0 0\n"
      "SUBMIT 5 1 4 60 600\n"
      "ESTIMATE 1\n"
      "ESTIMATE 1\n"
      "INTERVAL 1\n"
      "STATE\n"
      "QUIT\n"
      "SUBMIT 9 2 1 10 60\n"  // after QUIT: must not be served
      "STATE\n";
  ConstantPredictor predictor(600.0);
  const auto policy = make_policy(PolicyKind::Fcfs);
  OnlineSession reference_session(8, *policy, predictor);
  ServiceServer reference(reference_session);
  std::istringstream in(dialogue);
  std::ostringstream out;
  reference.serve_stream(in, out);

  TcpServer tcp;
  tcp_wire::WireClient client(tcp.port);
  client.send_raw(dialogue);
  EXPECT_EQ(client.read_until_closed(), lines_of(out.str()));
  EXPECT_EQ(tcp.session.state_version(), 3u) << "the SUBMIT after QUIT ran";
  EXPECT_EQ(tcp.server.stats().requests, 9u);
}

TEST(ServiceServerTcp, LineSplitAcrossWritesKeepsItsLineNumber) {
  TcpServer tcp;
  tcp_wire::WireClient client(tcp.port);
  EXPECT_EQ(client.read_line(), tcp.server.greeting());
  client.send_raw("HELLO RTP/1\nSTATE\nESTI");
  EXPECT_EQ(client.read_line(), "OK proto=RTP/1");
  EXPECT_EQ(client.read_line().rfind("OK now=0", 0), 0u);
  client.send_raw("MATE 42\n");
  const std::string reply = client.read_line();
  EXPECT_EQ(reply.rfind("ERR line=3 code=state", 0), 0u) << reply;
}

TEST(ServiceServerTcp, CompleteLinesAreAnsweredBeforeAnOversizeTailCloses) {
  ServerOptions options;
  options.max_line_bytes = 128;
  TcpServer tcp(options);
  tcp_wire::WireClient client(tcp.port);
  client.send_raw("SUBMIT 0 0 8 120 600\nSTATE\n" + std::string(4096, 'x'));
  const std::vector<std::string> replies = client.read_until_closed();
  ASSERT_EQ(replies.size(), 4u);
  EXPECT_EQ(replies[0], tcp.server.greeting());
  EXPECT_EQ(replies[1], "OK version=1");
  EXPECT_EQ(replies[2].rfind("OK now=0 version=1", 0), 0u) << replies[2];
  EXPECT_EQ(replies[3],
            "ERR line=3 code=parse msg=line exceeds 128 bytes without a newline");
  EXPECT_EQ(tcp.server.stats().errors, 1u);
}

}  // namespace
}  // namespace rtp
