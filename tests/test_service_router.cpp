// rtprouter (src/service/router.hpp): partition-map determinism, the
// routing-key fast scan fuzzed against the full parse, and the property the
// whole tier stands on — keyed streams pushed through the router answer
// byte-identically to each partition's own monolithic rtpd, including ERR
// lines (whose line= token must carry the client's numbering) and across a
// kill-worker → PROMOTE failover onto a replicated standby.  Back-pressure
// propagation (code=busy surfaces unchanged after same-backend retries,
// code=readonly advances to the next replica) and the exact STATS fan-out
// merge (counters summed, quantiles from LatencyHistogram::merge) are
// pinned against hand-rolled canned backends.  The front side's TCP line
// loop is pinned too: TCP_NODELAY on the client and backend sockets, QUIT
// inside a pipelined write, line numbers across reads, and replies flushed
// before an overflow error.
//
// Teardown discipline: a Router holds pooled connections into its backends,
// and a worker's serve() cannot drain until those close.  Every test
// therefore declares workers/backends BEFORE the Router so stack unwinding
// destroys the router (closing its pools) first.
#include "service/router.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "core/strings.hpp"
#include "predict/simple.hpp"
#include "sched/policy.hpp"
#include "service/client.hpp"
#include "service/io.hpp"
#include "service/journal.hpp"
#include "service/protocol.hpp"
#include "service/replication.hpp"
#include "service/server.hpp"
#include "service/session.hpp"
#include "stats/histogram.hpp"
#include "tcp_wire.hpp"

namespace rtp {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "rtp_router_" + name;
}

/// Loopback listener; *port picks the port (0 = ephemeral) and receives the
/// bound one — a fixed port lets a test model "restarted on the same port".
int make_listener(std::uint16_t* port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  RTP_CHECK(fd >= 0, "socket failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(*port);
  RTP_CHECK(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
            "bind failed");
  RTP_CHECK(::listen(fd, 16) == 0, "listen failed");
  socklen_t len = sizeof(addr);
  RTP_CHECK(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0,
            "getsockname failed");
  *port = ntohs(addr.sin_port);
  return fd;
}

/// In-process monolithic reference server (no TCP): the byte-identity
/// oracle routed answers are compared against.
struct Mono {
  Mono()
      : policy(make_policy(PolicyKind::Fcfs)),
        predictor(600.0),
        session(8, *policy, predictor) {
    ServerOptions options;
    options.greeting = false;
    server = std::make_unique<ServiceServer>(session, options);
  }

  std::string reply(const std::string& line, std::size_t line_number) {
    bool quit = false;
    return server->handle_line(line, line_number, &quit);
  }

  std::unique_ptr<SchedulerPolicy> policy;
  ConstantPredictor predictor;
  OnlineSession session;
  std::unique_ptr<ServiceServer> server;
};

/// One worker rtpd behind TCP: Mono plus an ephemeral port and serve thread.
struct Worker {
  Worker() {
    port = mono.server->listen_on(0);
    address = "127.0.0.1:" + std::to_string(port);
    thread = std::thread([this] { mono.server->serve(); });
  }

  ~Worker() {
    mono.server->shutdown();
    thread.join();
  }

  Mono mono;
  std::uint16_t port = 0;
  std::string address;
  std::thread thread;
};

/// Hand-rolled backend answering every request line with one canned reply —
/// the deterministic stand-in for an overloaded (code=busy) or read-only
/// standby (code=readonly) rtpd.
class CannedBackend {
 public:
  explicit CannedBackend(std::string reply) : reply_(std::move(reply)) {
    listen_fd_ = make_listener(&port_);
    accept_thread_ = std::thread([this] { accept_loop(); });
  }

  ~CannedBackend() {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    accept_thread_.join();
    for (std::thread& t : conn_threads_) t.join();
  }

  std::uint16_t port() const { return port_; }
  std::string address() const { return "127.0.0.1:" + std::to_string(port_); }
  std::uint64_t lines() const { return lines_.load(); }

 private:
  void accept_loop() {
    for (;;) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      conn_threads_.emplace_back([this, fd] { serve_conn(fd); });
    }
  }

  void serve_conn(int fd) {
    io::LineReader reader(fd);
    std::string line;
    while (reader.read_line(&line, 1 << 16).ok()) {
      lines_.fetch_add(1);
      const std::string framed = reply_ + "\n";
      if (!io::send_all(fd, framed.data(), framed.size()).ok()) break;
    }
    ::close(fd);
  }

  std::string reply_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<std::uint64_t> lines_{0};
  std::thread accept_thread_;
  std::vector<std::thread> conn_threads_;
};

/// Severable TCP proxy in front of a worker — the in-process stand-in for
/// kill -9: kill() refuses new connections and severs every live one, so
/// the router sees the backend vanish mid-stream.
class ChaosProxy {
 public:
  explicit ChaosProxy(std::uint16_t backend_port, std::uint16_t listen_port = 0)
      : backend_port_(backend_port), port_(listen_port) {
    listen_fd_.store(make_listener(&port_));
    accept_thread_ = std::thread([this] { accept_loop(); });
  }

  ~ChaosProxy() {
    kill();
    accept_thread_.join();
    for (std::thread& t : pumps_) t.join();
    for (const int fd : fds_) ::close(fd);
  }

  std::uint16_t port() const { return port_; }
  std::string address() const { return "127.0.0.1:" + std::to_string(port_); }

  void kill() {
    const int fd = listen_fd_.exchange(-1);
    if (fd >= 0) {
      ::shutdown(fd, SHUT_RDWR);
      ::close(fd);
    }
    std::lock_guard<std::mutex> lock(mutex_);
    for (const int conn : fds_) ::shutdown(conn, SHUT_RDWR);
  }

 private:
  void accept_loop() {
    for (;;) {
      const int listener = listen_fd_.load();
      if (listener < 0) return;
      const int client = ::accept(listener, nullptr, nullptr);
      if (client < 0) return;
      std::string error;
      const int backend = io::dial_tcp("127.0.0.1", backend_port_, 2000, &error);
      if (backend < 0) {
        ::close(client);
        continue;
      }
      std::lock_guard<std::mutex> lock(mutex_);
      fds_.push_back(client);
      fds_.push_back(backend);
      pumps_.emplace_back([client, backend] { pump(client, backend); });
      pumps_.emplace_back([client, backend] { pump(backend, client); });
    }
  }

  // Splice bytes one way; on EOF or error sever both sides so the peer
  // pump unblocks too.  Fds are closed once, in the destructor.
  static void pump(int from, int to) {
    char chunk[4096];
    for (;;) {
      const io::IoResult r = io::recv_some(from, chunk, sizeof(chunk));
      if (!r.ok() || r.bytes == 0) break;
      if (!io::send_all(to, chunk, r.bytes).ok()) break;
    }
    ::shutdown(from, SHUT_RDWR);
    ::shutdown(to, SHUT_RDWR);
  }

  std::uint16_t backend_port_ = 0;
  std::uint16_t port_ = 0;
  std::atomic<int> listen_fd_{-1};
  std::mutex mutex_;
  std::vector<int> fds_;
  std::thread accept_thread_;
  std::vector<std::thread> pumps_;
};

/// Fast-retry options so failover tests don't sleep through real backoffs.
RouterOptions test_options() {
  RouterOptions options;
  options.greeting = false;
  options.max_attempts = 4;
  options.backoff_min_ms = 1;
  options.backoff_max_ms = 2;
  options.connect_timeout_ms = 2000;
  options.read_timeout_ms = 5000;
  return options;
}

/// The value of `name=` in a response line ("" + test failure if absent).
std::string field(const std::string& reply, const std::string& name) {
  for (const std::string_view token : split_whitespace(reply))
    if (starts_with(token, name + "=")) return std::string(token.substr(name.size() + 1));
  ADD_FAILURE() << "no field " << name << "= in: " << reply;
  return {};
}

// --- partition map ---------------------------------------------------------

TEST(PartitionMap, RoutesByAssignmentThenHashWithKeylessDefault) {
  PartitionMap map;
  map.partitions = {{"127.0.0.1:7001"}, {"127.0.0.1:7002"}, {"127.0.0.1:7003"}};
  map.default_partition = 2;
  map.assignments.emplace("anl", 0);
  map.validate();
  EXPECT_EQ(map.route(""), 2u);      // keyless -> default partition
  EXPECT_EQ(map.route("anl"), 0u);   // explicit assignment wins
  const std::size_t hashed = map.route("some-other-key");
  EXPECT_LT(hashed, 3u);
  EXPECT_EQ(map.route("some-other-key"), hashed);    // stable
  EXPECT_EQ(hashed, crc32("some-other-key") % 3u);   // pinned hash discipline
}

TEST(PartitionMap, DumpLoadRoundTripsCanonically) {
  PartitionMap map;
  map.version = 7;
  map.default_partition = 1;
  map.partitions = {{"127.0.0.1:7001", "127.0.0.1:7004"}, {"localhost:7002"}};
  map.assignments.emplace("ctc", 1);
  map.assignments.emplace("anl", 0);
  const std::string text = map.dump();
  EXPECT_EQ(text,
            "RTPMAP1 version=7 partitions=2 default=1\n"
            "partition 0 127.0.0.1:7001 127.0.0.1:7004\n"
            "partition 1 localhost:7002\n"
            "assign anl 0\n"  // key order, not insertion order
            "assign ctc 1\n");
  const PartitionMap back = PartitionMap::load(text);
  EXPECT_EQ(back.dump(), text);
  EXPECT_EQ(back.version, 7u);
  EXPECT_EQ(back.route("ctc"), 1u);
  EXPECT_EQ(back.route(""), 1u);
  // Comments and blank lines are tolerated on load.
  EXPECT_EQ(PartitionMap::load("# cluster map\n\n" + text).dump(), text);
}

TEST(PartitionMap, LoadRejectsMalformedMaps) {
  const auto reject = [](const std::string& text) {
    EXPECT_THROW(PartitionMap::load(text), Error) << text;
  };
  reject("");
  reject("RTPMAP2 version=1 partitions=1 default=0\npartition 0 127.0.0.1:1\n");
  reject("RTPMAP1 version=1 partitions=1 default=1\npartition 0 127.0.0.1:1\n");
  reject("RTPMAP1 version=1 partitions=2 default=0\npartition 0 127.0.0.1:1\n");
  reject("RTPMAP1 version=1 partitions=2 default=0\n"
         "partition 1 127.0.0.1:1\npartition 0 127.0.0.1:2\n");  // out of order
  reject("RTPMAP1 version=1 partitions=1 default=0\npartition 0 notanaddress\n");
  reject("RTPMAP1 version=1 partitions=1 default=0\npartition 0 127.0.0.1:1\n"
         "assign k 0\nassign k 0\n");  // duplicate assignment
  reject("RTPMAP1 version=1 partitions=1 default=0\npartition 0 127.0.0.1:1\n"
         "assign k 5\n");  // assignment target out of range
  reject("RTPMAP1 version=1 partitions=1 default=0\npartition 0 127.0.0.1:1\nbogus\n");
}

// --- routing-key fast scan vs full parse (seeded fuzz) ---------------------

TEST(RouteKeyFuzz, ScanAgreesWithFullParseOnRandomLines) {
  // Contract pinned here (and relied on by Router::handle_line): whenever
  // parse_request succeeds, its Request::key equals what the scan found;
  // whenever the scan says Malformed, parse_request throws.
  const std::array<std::string, 6> bases = {
      "ESTIMATE 7", "STATE",  "SUBMIT 0 1 4 60 - u=alice",
      "START 5 3",  "STATS",  "INTERVAL 7 0.25 4"};
  const std::array<std::string, 14> soup = {
      "SUBMIT", "ESTIMATE", "STATS", "7",     "0",     "1",      "4",
      "60",     "-",        "key=a", "key=",  "u=alice", "key=b", "#x"};
  const std::array<std::string, 3> separators = {" ", "  ", "\t"};

  Rng rng(0xF00DF00Du);
  std::size_t parsed_ok = 0, keyed_ok = 0, malformed = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    std::string line;
    if (rng.chance(0.5)) {
      // A well-formed base line with key= tokens spliced into random slots.
      auto tokens = split_whitespace(
          bases[static_cast<std::size_t>(rng.uniform_int(0, 5))]);
      std::vector<std::string> parts(tokens.begin(), tokens.end());
      const int keys = static_cast<int>(rng.uniform_int(0, 2));
      for (int k = 0; k < keys; ++k) {
        const std::string token =
            rng.chance(0.1) ? "key=" : "key=k" + std::to_string(rng.uniform_int(0, 9));
        const auto slot = static_cast<std::size_t>(
            rng.uniform_int(1, static_cast<std::int64_t>(parts.size())));
        parts.insert(parts.begin() + static_cast<std::ptrdiff_t>(slot), token);
      }
      for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i > 0) line += separators[static_cast<std::size_t>(rng.uniform_int(0, 2))];
        line += parts[i];
      }
    } else {
      // Token soup, including bare junk and malformed keys.
      const auto count = static_cast<std::size_t>(rng.uniform_int(0, 6));
      for (std::size_t i = 0; i < count; ++i) {
        if (i > 0) line += separators[static_cast<std::size_t>(rng.uniform_int(0, 2))];
        line += soup[static_cast<std::size_t>(rng.uniform_int(0, 13))];
      }
    }

    const RouteKey scanned = extract_route_key(line);
    if (scanned.kind == RouteKey::Kind::Malformed) ++malformed;
    bool parsed = false;
    Request request;
    try {
      request = parse_request(line);
      parsed = true;
    } catch (const ProtocolError&) {
    } catch (const Error&) {
    }
    if (!parsed) continue;
    ++parsed_ok;
    if (scanned.kind == RouteKey::Kind::Keyed) {
      ++keyed_ok;
      EXPECT_EQ(request.key, std::string(scanned.key)) << "line: " << line;
    } else {
      // A Malformed scan verdict on a parseable line breaks the contract.
      EXPECT_EQ(scanned.kind, RouteKey::Kind::None) << "line: " << line;
      EXPECT_TRUE(request.key.empty()) << "line: " << line;
    }
  }
  // The generator must actually exercise all three verdicts.
  EXPECT_GT(parsed_ok, 2000u);
  EXPECT_GT(keyed_ok, 1000u);
  EXPECT_GT(malformed, 50u);
}

// --- local answers (no backend required) -----------------------------------

TEST(Router, AnswersHelloQuitAndMalformedKeysLocally) {
  // The partition is unreachable on purpose: none of these lines may be
  // forwarded.
  Mono reference;
  PartitionMap map;
  map.partitions = {{"127.0.0.1:1"}};
  Router router(std::move(map), test_options());

  bool quit = false;
  EXPECT_EQ(router.handle_line("", 1, &quit), "");
  EXPECT_EQ(router.handle_line("# comment", 2, &quit), "");
  EXPECT_EQ(router.handle_line("HELLO RTP/1", 3, &quit), "OK proto=RTP/1");
  const std::string mismatch = router.handle_line("HELLO RTP/9", 4, &quit);
  EXPECT_EQ(mismatch.rfind("ERR line=4 code=proto", 0), 0u) << mismatch;

  // A malformed key= reproduces the monolithic server's exact error bytes.
  for (const char* line : {"ESTIMATE 7 key=", "ESTIMATE 7 key=a key=b"}) {
    EXPECT_EQ(router.handle_line(line, 5, &quit), reference.reply(line, 5)) << line;
  }

  EXPECT_FALSE(quit);
  EXPECT_EQ(router.handle_line("QUIT", 6, &quit), "OK bye");
  EXPECT_TRUE(quit);
  EXPECT_EQ(router.stats().forwarded, 0u);
  EXPECT_EQ(router.stats().requests, 5u);  // blanks and comments don't count
  EXPECT_EQ(router.stats().errors, 3u);    // HELLO RTP/9 + two malformed keys
}

TEST(Router, UnreachablePartitionAnswersDeterministicBusy) {
  PartitionMap map;
  map.partitions = {{"127.0.0.1:1"}};
  RouterOptions options = test_options();
  options.max_attempts = 2;
  options.connect_timeout_ms = 200;
  Router router(std::move(map), options);

  bool quit = false;
  EXPECT_EQ(router.handle_line("ESTIMATE 7", 3, &quit),
            "ERR line=3 code=busy msg=partition 0 unreachable; retry");
  EXPECT_EQ(router.stats().errors, 1u);
  EXPECT_EQ(router.stats().failovers, 2u);  // one advance per failed attempt
  EXPECT_EQ(router.stats().forwarded, 0u);  // nothing ever reached a worker
}

// --- back-pressure and failover against canned backends --------------------

TEST(Router, BusyRetriesSameBackendThenSurfacesTheReply) {
  CannedBackend busy("ERR line=9 code=busy msg=server overloaded; retry");
  PartitionMap map;
  map.partitions = {{busy.address()}};
  RouterOptions options = test_options();
  options.max_attempts = 3;
  Router router(std::move(map), options);

  bool quit = false;
  // Surfaced unchanged except line=, rewritten from the backend's 9 to the
  // client's own numbering.
  EXPECT_EQ(router.handle_line("ESTIMATE 1", 5, &quit),
            "ERR line=5 code=busy msg=server overloaded; retry");
  EXPECT_EQ(busy.lines(), 3u);  // every attempt hit the same backend
  EXPECT_EQ(router.stats().retries, 3u);
  EXPECT_EQ(router.stats().failovers, 0u);
  EXPECT_EQ(router.stats().forwarded, 3u);
}

TEST(Router, ReadonlyFailsOverToNextReplicaAndSticks) {
  CannedBackend standby("ERR line=1 code=readonly msg=read-only follower");
  Worker worker;
  PartitionMap map;
  map.partitions = {{standby.address(), worker.address}};
  Router router(std::move(map), test_options());

  bool quit = false;
  const std::string first = router.handle_line("SUBMIT 0 1 4 100 120", 1, &quit);
  EXPECT_EQ(first.rfind("OK", 0), 0u) << first;
  EXPECT_EQ(standby.lines(), 1u);
  EXPECT_EQ(router.stats().failovers, 1u);

  // Sticky: the next request goes straight to the worker.
  const std::string second = router.handle_line("ESTIMATE 1", 2, &quit);
  EXPECT_EQ(second.rfind("OK job=1 wait=", 0), 0u) << second;
  EXPECT_EQ(standby.lines(), 1u);
  EXPECT_EQ(router.stats().failovers, 1u);
}

// --- bit-identity: routed cluster vs monolithic workers --------------------

/// Per-site event script; site index skews the times so each partition's
/// answers differ.  Line 8 is a state error, pinning ERR line= rewriting.
std::vector<std::string> site_script(int i, const std::string& key) {
  const std::string k = " key=" + key;
  const auto t = [i](int base) { return std::to_string(base + i); };
  return {
      "SUBMIT 0 1 4 100 120" + k,
      "START " + t(1) + " 1" + k,
      "SUBMIT " + t(2) + " 2 8 50 60" + k,
      "ESTIMATE 2" + k,
      "SUBMIT " + t(3) + " 3 2 40 80" + k,
      "ESTIMATE 3" + k,
      "INTERVAL 3" + k,
      "ESTIMATE 99" + k,  // no such job: ERR with the client's line number
      "FINISH 100 1" + k,
      "START 101 2" + k,
      "ESTIMATE 3" + k,
  };
}

TEST(Router, KeyedStreamsThroughTcpMatchMonolithicWorkersByteForByte) {
  const std::array<std::string, 3> keys = {"anl", "ctc", "sdsc"};
  std::array<Worker, 3> workers;
  std::array<Mono, 3> references;

  PartitionMap map;
  for (std::size_t i = 0; i < workers.size(); ++i) {
    map.partitions.push_back({workers[i].address});
    map.assignments.emplace(keys[i], i);
  }
  RouterOptions options = test_options();
  options.greeting = true;  // exercised across the real TCP front side
  Router router(std::move(map), options);
  const std::uint16_t port = router.listen_on(0);
  std::thread router_thread([&router] { router.serve(); });

  {
    ServiceClient client({"127.0.0.1:" + std::to_string(port)});
    std::array<std::vector<std::string>, 3> scripts;
    for (std::size_t i = 0; i < scripts.size(); ++i)
      scripts[i] = site_script(static_cast<int>(i), keys[i]);

    // Interleave the three keyed streams through one connection; the global
    // line numbers are what the router's connection handler will see, so
    // the references are driven with the same numbering.
    std::size_t line_number = 0;
    for (std::size_t round = 0; round < scripts[0].size(); ++round) {
      for (std::size_t i = 0; i < scripts.size(); ++i) {
        const std::string& line = scripts[i][round];
        ++line_number;
        const ClientReply routed = client.request(line);
        EXPECT_EQ(routed.line, references[i].reply(line, line_number))
            << "line " << line_number << ": " << line;
      }
    }

    // A keyed STATS forwards to exactly one worker (its reply has the
    // worker-only qps= field); a keyless STATS is the cluster merge.
    const ClientReply one = client.request("STATS key=ctc");
    EXPECT_TRUE(one.ok) << one.line;
    EXPECT_FALSE(field(one.line, "qps").empty());
    const ClientReply all = client.request("STATS");
    EXPECT_TRUE(all.ok) << all.line;
    EXPECT_EQ(field(all.line, "partitions"), "3");
    EXPECT_EQ(field(all.line, "up"), "3");
  }

  router.shutdown();
  router_thread.join();
  EXPECT_EQ(router.stats().errors, 3u);  // one ESTIMATE 99 per stream
  EXPECT_GE(router.stats().forwarded, 33u);
  EXPECT_EQ(router.stats().retries, 0u);
  EXPECT_EQ(router.stats().failovers, 0u);
}

// --- exact STATS fan-out merge ---------------------------------------------

TEST(Router, StatsFanOutSumsCountersAndMergesHistogramsExactly) {
  std::array<Worker, 2> workers;
  PartitionMap map;
  map.partitions = {{workers[0].address}, {workers[1].address}};
  map.assignments.emplace("a", 0);
  map.assignments.emplace("b", 1);
  Router router(std::move(map), test_options());

  bool quit = false;
  std::size_t n = 0;
  for (const char* line : {"SUBMIT 0 1 4 100 120 key=a", "SUBMIT 1 2 2 50 - key=a",
                           "ESTIMATE 2 key=a", "SUBMIT 0 1 2 80 100 key=b",
                           "ESTIMATE 1 key=b"}) {
    const std::string reply = router.handle_line(line, ++n, &quit);
    ASSERT_EQ(reply.rfind("OK", 0), 0u) << line << " -> " << reply;
  }

  // Keyed STATS hist: each worker's exact snapshot (the reply counts
  // itself, so worker 0 reports its 3 traffic lines + this one).
  const std::string a_stats = router.handle_line("STATS hist key=a", ++n, &quit);
  const std::string b_stats = router.handle_line("STATS hist key=b", ++n, &quit);
  EXPECT_EQ(field(a_stats, "requests"), "4");
  EXPECT_EQ(field(b_stats, "requests"), "3");

  // The keyless fan-out sends each worker one more STATS hist, so the
  // merged counters are exactly the keyed snapshots + 1 each.
  const std::string merged_hist = router.handle_line("STATS hist", ++n, &quit);
  ASSERT_EQ(merged_hist.rfind("OK ", 0), 0u) << merged_hist;
  EXPECT_EQ(field(merged_hist, "partitions"), "2");
  EXPECT_EQ(field(merged_hist, "up"), "2");
  EXPECT_EQ(field(merged_hist, "map_version"), "1");
  EXPECT_EQ(field(merged_hist, "requests"), "9");  // (4+1) + (3+1)
  EXPECT_EQ(field(merged_hist, "events"), "3");
  EXPECT_EQ(field(merged_hist, "queries"), "2");
  EXPECT_EQ(field(merged_hist, "errors"), "0");
  EXPECT_EQ(field(merged_hist, "completed"), "0");

  // Quantiles come from LatencyHistogram::merge of the workers' serialized
  // histograms — the merged estimate_hist must be byte-equal to merging
  // the keyed snapshots (ESTIMATE traffic has not changed since).
  LatencyHistogram expected =
      LatencyHistogram::deserialize(field(a_stats, "estimate_hist"));
  expected.merge(LatencyHistogram::deserialize(field(b_stats, "estimate_hist")));
  EXPECT_EQ(field(merged_hist, "estimate_hist"), expected.serialize());
  EXPECT_EQ(expected.count(), 2u);  // one ESTIMATE per worker
  EXPECT_EQ(field(merged_hist, "p50_us"), format_number(expected.p50()));
  EXPECT_EQ(field(merged_hist, "p95_us"), format_number(expected.p95()));
  EXPECT_EQ(field(merged_hist, "p99_us"), format_number(expected.p99()));
  EXPECT_EQ(field(merged_hist, "max_us"), format_number(expected.max()));

  // hit_rate is recomputed from the summed counters, never averaged.
  const std::uint64_t hits = std::stoull(field(merged_hist, "cache_hits"));
  const std::uint64_t misses = std::stoull(field(merged_hist, "cache_misses"));
  const double rate = hits + misses > 0
                          ? static_cast<double>(hits) / static_cast<double>(hits + misses)
                          : 0.0;
  EXPECT_EQ(field(merged_hist, "hit_rate"), format_number(rate));

  // Router-side counters ride along: 9 request lines so far, and the two
  // fan-outs forwarded one STATS hist per partition on top of the traffic.
  const std::string merged = router.handle_line("STATS", ++n, &quit);
  EXPECT_EQ(field(merged, "requests"), "11");
  EXPECT_EQ(field(merged, "router_requests"), "9");
  EXPECT_EQ(field(merged, "router_forwarded"), "11");
  EXPECT_EQ(field(merged, "router_retries"), "0");
  EXPECT_EQ(field(merged, "router_failovers"), "0");
}

// --- mid-stream failover: kill the primary, PROMOTE the standby ------------

TEST(Router, MidStreamFailoverOntoPromotedStandbyKeepsBitIdentity) {
  // A replicated pair behind one partition: the primary sits behind a
  // severable proxy (the router must see it die), the follower applies the
  // journal stream live and serves TCP as the second replica.
  Mono reference;

  // Follower: mirrored session + journal + read-only server + applier.
  const auto follower_policy = make_policy(PolicyKind::Fcfs);
  ConstantPredictor follower_predictor(600.0);
  OnlineSession follower_session(8, *follower_policy, follower_predictor);
  const std::string follower_journal_path = temp_path("failover_f.rtpj");
  ::unlink(follower_journal_path.c_str());
  ::unlink((follower_journal_path + ".base").c_str());
  JournalWriter follower_journal(follower_journal_path);
  ServerOptions follower_options;
  follower_options.greeting = false;
  follower_options.journal = &follower_journal;
  follower_options.snapshot_every = 0;
  ServiceServer follower_server(follower_session, follower_options);
  FollowerApplier applier(follower_server, follower_session, follower_journal,
                          session_fingerprint(follower_session), {});
  follower_server.attach_follower(&applier);
  const std::uint16_t repl_port = applier.listen_on(0);
  applier.start();
  const std::uint16_t follower_port = follower_server.listen_on(0);
  std::thread follower_thread([&follower_server] { follower_server.serve(); });

  // Primary: journaled server streaming commits to the follower.
  const auto primary_policy = make_policy(PolicyKind::Fcfs);
  ConstantPredictor primary_predictor(600.0);
  OnlineSession primary_session(8, *primary_policy, primary_predictor);
  const std::string primary_journal_path = temp_path("failover_p.rtpj");
  ::unlink(primary_journal_path.c_str());
  ::unlink((primary_journal_path + ".base").c_str());
  JournalWriter primary_journal(primary_journal_path);
  ReplicationOptions repl_options;
  repl_options.heartbeat_ms = 50;
  ReplicationSender sender(primary_journal_path,
                           session_fingerprint(primary_session), repl_options);
  ServerOptions primary_options;
  primary_options.greeting = false;
  primary_options.journal = &primary_journal;
  primary_options.snapshot_every = 0;
  primary_options.replication = &sender;
  ServiceServer primary_server(primary_session, primary_options);
  sender.set_snapshot_source(
      [&primary_server] { return primary_server.replication_snapshot(); });
  sender.add_follower("127.0.0.1", repl_port);
  sender.start();
  const std::uint16_t primary_port = primary_server.listen_on(0);
  std::thread primary_thread([&primary_server] { primary_server.serve(); });

  ChaosProxy proxy(primary_port);
  PartitionMap map;
  map.partitions = {{proxy.address(),
                     "127.0.0.1:" + std::to_string(follower_port)}};
  map.assignments.emplace("anl", 0);
  // Optional so the pools can be torn down before joining the follower's
  // serve thread (serve() drains only once pooled connections close).
  std::optional<Router> router;
  router.emplace(std::move(map), test_options());

  const std::vector<std::string> first_half = {
      "SUBMIT 0 1 4 100 120 key=anl",
      "START 1 1 key=anl",
      "SUBMIT 2 2 8 50 60 key=anl",
      "ESTIMATE 2 key=anl",
  };
  const std::vector<std::string> second_half = {
      "SUBMIT 3 3 2 40 80 key=anl",
      "ESTIMATE 3 key=anl",
      "FINISH 100 1 key=anl",
      "START 101 2 key=anl",
      "ESTIMATE 3 key=anl",
      "ESTIMATE 2 key=anl",  // running job: ERR, line number must match
  };

  bool quit = false;
  std::size_t line_number = 0;
  for (const std::string& line : first_half) {
    ++line_number;
    EXPECT_EQ(router->handle_line(line, line_number, &quit),
              reference.reply(line, line_number))
        << line;
  }

  // Let replication catch up, then kill the primary under the router.
  const std::uint64_t committed = sender.last_committed_seq();
  ASSERT_GT(committed, 0u);
  ASSERT_TRUE(sender.wait_for_acks(committed, 5000));
  proxy.kill();
  sender.stop();
  primary_server.shutdown();
  primary_thread.join();

  // The operator's failover: PROMOTE through the router lands on the
  // standby (after the dead primary fails over) and flips it to primary.
  ++line_number;
  const std::string promoted =
      router->handle_line("PROMOTE key=anl", line_number, &quit);
  EXPECT_EQ(promoted.rfind("OK role=primary", 0), 0u) << promoted;
  EXPECT_GE(router->stats().failovers, 1u);

  // The rest of the stream answers byte-identically to the uncrashed
  // monolithic reference — the promoted standby lost nothing.
  for (const std::string& line : second_half) {
    ++line_number;
    EXPECT_EQ(router->handle_line(line, line_number, &quit),
              reference.reply(line, line_number))
        << line;
  }

  applier.stop();
  follower_server.shutdown();
  // The router still pools a connection into the follower; close the pools
  // before joining its serve thread.
  router.reset();
  follower_thread.join();
}

// --- stale pooled connections: retire + redial before failover --------------

TEST(Router, StalePooledConnectionRedialsTheSameReplicaOnce) {
  // The worker is killed (its proxy severs every connection) and comes
  // back on the SAME port (the operator restarted it).  The pooled
  // connection the router kept is a dead socket now: the next keyed
  // request must retire it and redial the same replica once — no
  // failover, no client-visible error.
  Worker worker;
  std::optional<ChaosProxy> first(std::in_place, worker.port);
  const std::uint16_t port = first->port();
  std::optional<ChaosProxy> second;

  PartitionMap map;
  map.partitions = {{"127.0.0.1:" + std::to_string(port)}};
  map.assignments.emplace("a", 0);
  std::optional<Router> router;
  router.emplace(std::move(map), test_options());

  bool quit = false;
  EXPECT_EQ(
      router->handle_line("SUBMIT 0 1 4 100 120 key=a", 1, &quit).rfind("OK", 0), 0u);

  first->kill();
  first.reset();  // frees the port; the pooled fd is already severed
  second.emplace(worker.port, port);
  ASSERT_EQ(second->port(), port);

  const std::string reply =
      router->handle_line("SUBMIT 5 2 4 100 120 key=a", 2, &quit);
  EXPECT_EQ(reply.rfind("OK", 0), 0u) << reply;
  EXPECT_EQ(router->stats().stale_retires, 1u);
  EXPECT_EQ(router->stats().failovers, 0u);
  EXPECT_EQ(router->stats().errors, 0u);

  // Kill it again WITHOUT a restart: the stale connection is still retired
  // first, but the redial fails and the transport-failure path takes over.
  second->kill();
  EXPECT_EQ(router->handle_line("ESTIMATE 9 key=a", 3, &quit),
            "ERR line=3 code=busy msg=partition 0 unreachable; retry");
  EXPECT_EQ(router->stats().stale_retires, 2u);
  EXPECT_GE(router->stats().failovers, 1u);
  EXPECT_EQ(router->stats().errors, 1u);
  router.reset();  // close pools before the proxies and worker unwind
}

// --- degraded STATS fan-out -------------------------------------------------

TEST(Router, StatsFanOutDegradesGracefullyWhenAPartitionIsDark) {
  Worker alive;
  PartitionMap map;
  map.partitions = {{alive.address}, {"127.0.0.1:1"}};
  map.assignments.emplace("a", 0);
  map.assignments.emplace("b", 1);
  RouterOptions options = test_options();
  options.max_attempts = 2;
  options.connect_timeout_ms = 200;
  Router router(std::move(map), options);

  bool quit = false;
  ASSERT_EQ(
      router.handle_line("SUBMIT 0 1 4 100 120 key=a", 1, &quit).rfind("OK", 0), 0u);
  ASSERT_EQ(router.handle_line("ESTIMATE 1 key=a", 2, &quit).rfind("OK", 0), 0u);
  EXPECT_EQ(router.handle_line("SUBMIT 0 1 4 100 120 key=b", 3, &quit),
            "ERR line=3 code=busy msg=partition 1 unreachable; retry");

  // The merge stays useful instead of failing wholesale: the dark
  // partition is marked, the partial flag is raised, and the summed
  // counters cover exactly what answered (the live worker's 2 traffic
  // lines + its fan-out STATS).
  const std::string stats = router.handle_line("STATS", 4, &quit);
  ASSERT_EQ(stats.rfind("OK ", 0), 0u) << stats;
  EXPECT_EQ(field(stats, "partitions"), "2");
  EXPECT_EQ(field(stats, "up"), "1");
  EXPECT_EQ(field(stats, "router_stats_partial"), "1");
  EXPECT_EQ(field(stats, "p0_load"), "2");
  EXPECT_EQ(field(stats, "p1_load"), "1");
  EXPECT_EQ(field(stats, "p1_unreachable"), "1");
  EXPECT_EQ(stats.find("p0_unreachable"), std::string::npos);
  EXPECT_EQ(field(stats, "requests"), "3");

  // A fully-up cluster never carries the partial marker.
  PartitionMap healthy;
  healthy.partitions = {{alive.address}};
  Router all_up(std::move(healthy), test_options());
  const std::string clean = all_up.handle_line("STATS", 1, &quit);
  ASSERT_EQ(clean.rfind("OK ", 0), 0u) << clean;
  EXPECT_EQ(clean.find("router_stats_partial"), std::string::npos);
  EXPECT_EQ(clean.find("unreachable"), std::string::npos);
}

// --- partition map: every rejection names its line --------------------------

TEST(PartitionMap, RejectionsNameTheOffendingLine) {
  const auto message = [](const std::string& text) -> std::string {
    try {
      PartitionMap::load(text);
    } catch (const Error& e) {
      return e.what();
    }
    ADD_FAILURE() << "load accepted: " << text;
    return {};
  };
  const std::string base =
      "RTPMAP1 version=1 partitions=2 default=0\n"
      "partition 0 127.0.0.1:1\n"
      "partition 1 127.0.0.1:2\n";
  EXPECT_NE(message("RTPMAP2 version=1 partitions=1 default=0\n")
                .find("partition map line 1:"),
            std::string::npos);
  EXPECT_NE(message(base + "bogus\n").find("partition map line 4:"),
            std::string::npos);
  // Physical lines count — a leading comment shifts the blame downward, so
  // the number matches what an editor shows.
  EXPECT_NE(message("# cluster\n" + base + "bogus\n").find("partition map line 5:"),
            std::string::npos);
  EXPECT_NE(message("RTPMAP1 version=1 partitions=2 default=0\n"
                    "partition 0 127.0.0.1:1\n"
                    "partition 1 nonsense\n")
                .find("partition map line 3:"),
            std::string::npos);
  EXPECT_NE(message(base + "assign k 0\nassign k 1\n").find("partition map line 5:"),
            std::string::npos);
  EXPECT_NE(message(base + "assign k 7\n").find("partition map line 4:"),
            std::string::npos);
  // Truncation blames the last line seen — the empty line after the final
  // newline, the spot where the missing partition line should have been.
  EXPECT_NE(message("RTPMAP1 version=1 partitions=2 default=0\n"
                    "partition 0 127.0.0.1:1\n")
                .find("partition map line 3:"),
            std::string::npos);
  // Reserved wire-encoding characters can never ride inside an address.
  EXPECT_NE(message("RTPMAP1 version=1 partitions=1 default=0\n"
                    "partition 0 127.0.0.1:1,127.0.0.2:2\n")
                .find("partition map line 2:"),
            std::string::npos);
}

TEST(PartitionMap, SeededMutationFuzzNeverAcceptsPartiallyAlwaysNamesALine) {
  PartitionMap map;
  map.version = 4;
  map.default_partition = 1;
  map.partitions = {{"127.0.0.1:7001", "127.0.0.1:7002"},
                    {"127.0.0.1:7003"},
                    {"127.0.0.1:7004"}};
  map.assignments.emplace("anl", 0);
  map.assignments.emplace("ctc", 1);
  map.assignments.emplace("sdsc", 2);
  const std::string canonical = map.dump();
  std::vector<std::string> lines;
  for (const std::string_view piece : split(canonical, '\n'))
    if (!piece.empty()) lines.emplace_back(piece);
  const std::array<std::string, 6> junk = {
      "partition 9 127.0.0.1:9",  "assign anl 0", "garbage",
      "partition zero 1.2.3.4:5", "assign x 99",  "RTPMAP1 version=0",
  };
  const auto join = [](const std::vector<std::string>& parts) {
    std::string out;
    for (const std::string& part : parts) out += part + "\n";
    return out;
  };

  Rng rng(0xC0FFEEu);
  std::size_t rejected = 0, accepted = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    std::string text;
    std::vector<std::string> mutated = lines;
    const auto slot = [&] {
      return static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(mutated.size()) - 1));
    };
    switch (rng.uniform_int(0, 4)) {
      case 0:  // truncate at a random byte (including "no cut at all")
        text = canonical.substr(
            0, static_cast<std::size_t>(
                   rng.uniform_int(0, static_cast<std::int64_t>(canonical.size()))));
        break;
      case 1:  // drop a line
        mutated.erase(mutated.begin() + static_cast<std::ptrdiff_t>(slot()));
        text = join(mutated);
        break;
      case 2: {  // duplicate a line
        const std::size_t at = slot();
        mutated.insert(mutated.begin() + static_cast<std::ptrdiff_t>(at),
                       mutated[at]);
        text = join(mutated);
        break;
      }
      case 3: {  // swap two lines
        const std::size_t a = slot();
        const std::size_t b = slot();
        std::swap(mutated[a], mutated[b]);
        text = join(mutated);
        break;
      }
      default:  // splice in junk
        mutated.insert(
            mutated.begin() + static_cast<std::ptrdiff_t>(
                                  rng.uniform_int(0, static_cast<std::int64_t>(
                                                         mutated.size()))),
            junk[static_cast<std::size_t>(rng.uniform_int(0, 5))]);
        text = join(mutated);
        break;
    }
    try {
      const PartitionMap survivor = PartitionMap::load(text);
      ++accepted;
      // Full parse or nothing: whatever load accepted must re-dump and
      // re-load canonically — there is no partially-applied state to leak.
      EXPECT_EQ(PartitionMap::load(survivor.dump()).dump(), survivor.dump()) << text;
    } catch (const Error& e) {
      ++rejected;
      EXPECT_NE(std::string(e.what()).find("partition map line "), std::string::npos)
          << "unlocated rejection for:\n" << text << "\nerror: " << e.what();
    }
  }
  // The generator must exercise both verdicts heavily.
  EXPECT_GT(rejected, 1000u);
  EXPECT_GT(accepted, 50u);
}

TEST(PartitionMap, WireEncodingRoundTripsAndGuardsReservedCharacters) {
  PartitionMap map;
  map.version = 7;
  map.default_partition = 1;
  map.partitions = {{"127.0.0.1:7001", "127.0.0.1:7004"}, {"localhost:7002"}};
  map.assignments.emplace("ctc", 1);
  map.assignments.emplace("anl", 0);
  const std::string encoded = encode_map_line(map);
  EXPECT_EQ(encoded.find(' '), std::string::npos);
  EXPECT_EQ(encoded.find('\n'), std::string::npos);
  const PartitionMap back = decode_map_line(encoded);
  EXPECT_EQ(back.dump(), map.dump());
  EXPECT_EQ(encode_map_line(back), encoded);

  // The wire characters themselves can never appear in a valid map, which
  // is what makes the single-token encoding unambiguous.
  PartitionMap evil_address = map;
  evil_address.partitions[0][0] = "127.0.0.1:1,127.0.0.2:2";
  EXPECT_THROW(evil_address.validate(), Error);
  PartitionMap evil_key = map;
  evil_key.assignments.emplace("a;b", 0);
  EXPECT_THROW(evil_key.validate(), Error);
  EXPECT_THROW(decode_map_line("not-a-map"), Error);
}

// --- MAPSET/MAPGET on the router's own map ----------------------------------

TEST(Router, MapsetSwapsStrictlyNewerMapsAtomically) {
  Mono reference;
  Worker worker;
  PartitionMap map;
  map.partitions = {{"127.0.0.1:1"}};  // v1 points nowhere on purpose
  Router router(std::move(map), test_options());

  bool quit = false;
  const std::string got = router.handle_line("MAPGET", 1, &quit);
  ASSERT_EQ(got.rfind("OK map_version=1 map=", 0), 0u) << got;
  EXPECT_EQ(decode_map_line(field(got, "map")).dump(), router.map().dump());

  // Monotonicity: re-installing the same version is refused.
  EXPECT_EQ(
      router.handle_line("MAPSET map=" + field(got, "map"), 2, &quit),
      "ERR line=2 code=state msg=MAPSET: version 1 is not newer than installed 1");

  // A malformed map is refused with the offending line named and nothing
  // is installed.
  const std::string refused = router.handle_line(
      "MAPSET map=RTPMAP1,version=9,partitions=2,default=0;partition,0,127.0.0.1:1",
      3, &quit);
  EXPECT_EQ(refused.rfind("ERR line=3 code=state", 0), 0u) << refused;
  EXPECT_NE(refused.find("partition map line "), std::string::npos) << refused;
  EXPECT_EQ(router.map_version(), 1u);

  // A strictly newer map swaps the whole routing table: the very next
  // request forwards to the new backend and answers the reference's bytes.
  PartitionMap next;
  next.version = 2;
  next.partitions = {{worker.address}};
  EXPECT_EQ(router.handle_line("MAPSET map=" + encode_map_line(next), 4, &quit),
            "OK map_version=2 partitions=1");
  EXPECT_EQ(router.map_version(), 2u);
  EXPECT_EQ(router.handle_line("ESTIMATE 1", 5, &quit),
            reference.reply("ESTIMATE 1", 5));
}

// --- the front side's TCP line loop ----------------------------------------

/// A greeting router in front of one worker, served over loopback TCP.  The
/// worker is declared first so the router (and its pooled connections) is
/// destroyed first.
struct TcpRouter {
  explicit TcpRouter(RouterOptions options = test_options())
      : router(one_partition(worker.address), greeting_on(options)),
        port(router.listen_on(0)),
        thread([this] { router.serve(); }) {}
  ~TcpRouter() {
    router.shutdown();
    thread.join();
  }

  static PartitionMap one_partition(const std::string& address) {
    PartitionMap map;
    map.partitions = {{address}};
    return map;
  }
  static RouterOptions greeting_on(RouterOptions options) {
    options.greeting = true;
    return options;
  }

  Worker worker;
  Router router;
  std::uint16_t port;
  std::thread thread;
};

/// An fd of this process connected to 127.0.0.1:`port`, or -1.
int fd_connected_to(std::uint16_t port) {
  for (int fd = 0; fd < 4096; ++fd) {
    sockaddr_in peer{};
    socklen_t len = sizeof(peer);
    if (::getpeername(fd, reinterpret_cast<sockaddr*>(&peer), &len) == 0 &&
        ntohs(peer.sin_port) == port)
      return fd;
  }
  return -1;
}

TEST(RouterTcp, NodelayIsSetOnClientAndBackendSockets) {
  TcpRouter tcp;
  tcp_wire::WireClient client(tcp.port);
  EXPECT_EQ(client.read_line().rfind("RTP/1 ready router partitions=1", 0), 0u);
  client.send_raw("STATE\n");  // forwarded: the router dials its backend
  EXPECT_EQ(client.read_line().rfind("OK now=0", 0), 0u);

  EXPECT_EQ(tcp_wire::nodelay(client.fd()), 1) << "client's dialed side";
  const int accepted = tcp_wire::peer_fd(client.fd());
  ASSERT_GE(accepted, 0);
  EXPECT_EQ(tcp_wire::nodelay(accepted), 1) << "router's accepted side";

  const int pooled = fd_connected_to(tcp.worker.port);
  ASSERT_GE(pooled, 0) << "the router's pooled backend connection";
  EXPECT_EQ(tcp_wire::nodelay(pooled), 1) << "router's dialed side";
  const int worker_side = tcp_wire::peer_fd(pooled);
  ASSERT_GE(worker_side, 0);
  EXPECT_EQ(tcp_wire::nodelay(worker_side), 1) << "worker's accepted side";
}

TEST(RouterTcp, QuitInsideOneWriteIsTheLastLineServed) {
  TcpRouter tcp;
  tcp_wire::WireClient client(tcp.port);
  client.send_raw(
      "HELLO RTP/1\n"
      "SUBMIT 0 1 4 100 120\n"
      "QUIT\n"
      "SUBMIT 5 2 4 100 120\n"  // after QUIT: must not be forwarded
      "STATE\n");
  const std::vector<std::string> replies = client.read_until_closed();
  ASSERT_EQ(replies.size(), 4u);
  EXPECT_EQ(replies[0].rfind("RTP/1 ready router partitions=1", 0), 0u) << replies[0];
  EXPECT_EQ(replies[1], "OK proto=RTP/1");
  EXPECT_EQ(replies[2], "OK version=1");
  EXPECT_EQ(replies[3], "OK bye");
  EXPECT_EQ(tcp.worker.mono.session.state_version(), 1u);
  EXPECT_EQ(tcp.router.stats().requests, 3u);
}

TEST(RouterTcp, LineSplitAcrossWritesKeepsItsLineNumber) {
  Mono reference;
  TcpRouter tcp;
  tcp_wire::WireClient client(tcp.port);
  EXPECT_EQ(client.read_line().rfind("RTP/1 ready router", 0), 0u);
  client.send_raw("HELLO RTP/1\nESTI");
  EXPECT_EQ(client.read_line(), "OK proto=RTP/1");
  client.send_raw("MATE 99\n");
  // The worker's ERR carries its own count; the router's rewrite must see
  // the split line as the client's line 2.
  EXPECT_EQ(client.read_line(), reference.reply("ESTIMATE 99", 2));
}

TEST(RouterTcp, CompleteLinesAreAnsweredBeforeAnOversizeTailCloses) {
  RouterOptions options = test_options();
  options.max_line_bytes = 128;
  TcpRouter tcp(options);
  tcp_wire::WireClient client(tcp.port);
  client.send_raw("SUBMIT 0 1 4 100 120\nSTATE\n" + std::string(4096, 'x'));
  const std::vector<std::string> replies = client.read_until_closed();
  ASSERT_EQ(replies.size(), 4u);
  EXPECT_EQ(replies[1], "OK version=1");
  EXPECT_EQ(replies[2].rfind("OK now=0 version=1", 0), 0u) << replies[2];
  EXPECT_EQ(replies[3],
            "ERR line=3 code=parse msg=line exceeds 128 bytes without a newline");
  EXPECT_EQ(tcp.router.stats().errors, 1u);
}

}  // namespace
}  // namespace rtp
