// Overload protection: the bounded pending-request gate, per-request
// deadlines, the per-line and reassembly-buffer size caps, and the TCP
// connection limit.  A flooded server must answer `ERR code=busy` (never
// hang or grow without bound) and keep serving once load drops.
#include "service/server.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "predict/simple.hpp"
#include "sched/policy.hpp"
#include "service/session.hpp"

namespace rtp {
namespace {

constexpr int kLoadedJobs = 20000;

/// A session whose first ESTIMATE of the last job is deliberately
/// expensive: the shadow books thousands of queued jobs ahead of it and
/// holds the server lock for a while.
void load_session(OnlineSession& session) {
  for (int i = 0; i < kLoadedJobs; ++i) {
    Job job;
    job.id = static_cast<JobId>(i);
    job.nodes = 1;
    job.runtime = 600.0;
    job.max_runtime = 600.0;
    session.submit(job, static_cast<Seconds>(i) * 0.001);
  }
}

/// Flood the server from one thread with slow estimates while probing with
/// STATE from the caller; returns true once a probe (either side) was shed
/// with code=busy.  Retries a few rounds — shedding depends on overlap,
/// which thousands of probes against multi-millisecond estimates make all
/// but certain.
bool flood_until_shed(ServiceServer& server, std::uint64_t* ok_probes_out) {
  const std::string estimate = "ESTIMATE " + std::to_string(kLoadedJobs - 1);
  std::uint64_t ok_probes = 0;
  bool shed_seen = false;
  for (int round = 0; round < 5 && !shed_seen; ++round) {
    std::atomic<bool> done{false};
    std::atomic<bool> shed_in_load{false};
    std::thread load([&] {
      bool quit = false;
      for (int i = 0; i < 12; ++i) {
        const std::string r = server.handle_line(estimate, 1, &quit);
        if (r.find("code=busy") != std::string::npos) shed_in_load.store(true);
      }
      done.store(true);
    });
    bool quit = false;
    while (!done.load(std::memory_order_relaxed)) {
      const std::string r = server.handle_line("STATE", 1, &quit);
      if (r.rfind("OK", 0) == 0) ++ok_probes;
      if (r.find("code=busy") != std::string::npos) shed_seen = true;
    }
    load.join();
    shed_seen = shed_seen || shed_in_load.load();
  }
  if (ok_probes_out != nullptr) *ok_probes_out = ok_probes;
  return shed_seen;
}

TEST(ServiceOverload, PendingLimitShedsWithBusyAndRecovers) {
  ConstantPredictor predictor(600.0);
  const auto policy = make_policy(PolicyKind::Fcfs);
  OnlineSession session(8, *policy, predictor);
  load_session(session);

  ServerOptions options;
  options.max_pending = 1;  // one request in flight; the second is shed
  ServiceServer server(session, options);

  EXPECT_TRUE(flood_until_shed(server, nullptr))
      << "concurrent load against max_pending=1 must shed";
  EXPECT_GE(server.stats().shed, 1u);

  // Once the flood stops the server answers normally again.
  bool quit = false;
  EXPECT_EQ(server.handle_line("STATE", 1, &quit).rfind("OK", 0), 0u);
}

TEST(ServiceOverload, RequestDeadlineShedsSlowWaits) {
  ConstantPredictor predictor(600.0);
  const auto policy = make_policy(PolicyKind::Fcfs);
  OnlineSession session(8, *policy, predictor);
  load_session(session);

  ServerOptions options;
  options.request_deadline_ms = 1;  // probes give up instead of queueing
  ServiceServer server(session, options);

  std::uint64_t ok_probes = 0;
  EXPECT_TRUE(flood_until_shed(server, &ok_probes))
      << "waiting longer than the deadline for the lock must shed";
  EXPECT_GE(server.stats().shed, 1u);

  bool quit = false;
  EXPECT_EQ(server.handle_line("STATE", 1, &quit).rfind("OK", 0), 0u);
}

TEST(ServiceOverload, OversizedLineIsRejectedBeforeParsing) {
  ConstantPredictor predictor(600.0);
  const auto policy = make_policy(PolicyKind::Fcfs);
  OnlineSession session(8, *policy, predictor);

  ServerOptions options;
  options.max_line_bytes = 64;
  ServiceServer server(session, options);

  const std::string huge = "SUBMIT 0 1 4 120 600 u=" + std::string(200, 'x');
  bool quit = false;
  const std::string response = server.handle_line(huge, 3, &quit);
  EXPECT_EQ(response.rfind("ERR line=3 code=parse", 0), 0u) << response;
  EXPECT_NE(response.find("line too long"), std::string::npos) << response;
  EXPECT_EQ(session.state_version(), 0u) << "a rejected line must not mutate state";
  EXPECT_EQ(server.stats().errors, 1u);

  // A normally-sized line still goes through.
  EXPECT_EQ(server.handle_line("SUBMIT 0 1 4 120 600", 4, &quit), "OK version=1");
}

// Minimal blocking line client (mirrors test_service_server.cpp).
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

  void send_raw(const std::string& payload) {
    std::size_t sent = 0;
    while (sent < payload.size()) {
      const ssize_t n = ::send(fd_, payload.data() + sent, payload.size() - sent, 0);
      ASSERT_GT(n, 0);
      sent += static_cast<std::size_t>(n);
    }
  }

  void send_line(const std::string& line) { send_raw(line + "\n"); }

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

TEST(ServiceOverloadTcp, ConnectionLimitShedsWithBusyGreeting) {
  ConstantPredictor predictor(600.0);
  const auto policy = make_policy(PolicyKind::Fcfs);
  OnlineSession session(8, *policy, predictor);
  ServerOptions options;
  options.threads = 2;
  options.max_connections = 1;
  ServiceServer server(session, options);

  const std::uint16_t port = server.listen_on(0);
  ASSERT_GT(port, 0);
  std::thread accept_thread([&server] { server.serve(); });

  {
    LineClient admitted(port);
    EXPECT_EQ(admitted.read_line(), server.greeting());

    // The second connection is greeted with busy and closed immediately.
    LineClient shed(port);
    EXPECT_EQ(shed.read_line(),
              "ERR line=0 code=busy msg=server at connection limit; retry");
    EXPECT_EQ(shed.read_line(), "");  // connection closed

    // The admitted client is unaffected.
    admitted.send_line("STATE");
    EXPECT_EQ(admitted.read_line().rfind("OK now=0", 0), 0u);
  }
  EXPECT_EQ(server.stats().shed_connections, 1u);

  // Once the admitted client disconnects its slot frees up (the worker must
  // notice the close first, so poll briefly).
  bool readmitted = false;
  for (int attempt = 0; attempt < 500 && !readmitted; ++attempt) {
    LineClient retry(port);
    const std::string first = retry.read_line();
    if (first == server.greeting()) {
      readmitted = true;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(readmitted) << "the freed connection slot must be reusable";

  server.shutdown();
  accept_thread.join();
}

TEST(ServiceOverloadTcp, NewlineFreeFloodIsCutOffAtTheBufferCap) {
  ConstantPredictor predictor(600.0);
  const auto policy = make_policy(PolicyKind::Fcfs);
  OnlineSession session(8, *policy, predictor);
  ServerOptions options;
  options.threads = 2;
  options.max_line_bytes = 128;
  ServiceServer server(session, options);

  const std::uint16_t port = server.listen_on(0);
  std::thread accept_thread([&server] { server.serve(); });

  {
    LineClient flooder(port);
    EXPECT_EQ(flooder.read_line(), server.greeting());
    // 4 KiB with no newline (buffered by one send, so the server's close
    // cannot race a later send into SIGPIPE): the reassembly buffer must
    // never grow past the cap — the server answers with a parse error and
    // drops the connection.
    flooder.send_raw(std::string(4096, 'x'));
    const std::string response = flooder.read_line();
    EXPECT_EQ(response.rfind("ERR line=1 code=parse", 0), 0u) << response;
    EXPECT_NE(response.find("without a newline"), std::string::npos) << response;
    EXPECT_EQ(flooder.read_line(), "");  // closed
  }
  EXPECT_GE(server.stats().errors, 1u);
  EXPECT_EQ(session.state_version(), 0u);

  server.shutdown();
  accept_thread.join();
}

}  // namespace
}  // namespace rtp
