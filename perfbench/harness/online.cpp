// Online workload: recorded scheduler streams served by journaled rtpd
// partitions behind rtprouter, under open-loop load.
//
// Every pass starts a fresh set of server processes, because a stream can
// only be applied once to a session.  The load generator sends each
// connection's lines on a precomputed schedule from one sender thread and
// reads the ordered replies on one receiver thread; a line's latency runs
// from its intended send time to its reply, so a stall is charged to every
// line it delays.  Every reply must be byte-identical to an in-process
// replay of the same lines through ServiceServer::handle_line.
//
// The untraced run makes one unpaced pass (wall_s), then climbs the rate
// ladder; the reference rate runs several times and its median gives the
// latency metrics.  The traced run makes one reference pass to read the
// servers' STATS counters, then replays the lines in process through each
// layer's public calls (inproc.cpp).
#include "online.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <time.h>
#include <unistd.h>

#include "predict/factory.hpp"
#include "predict/simple.hpp"
#include "procs.hpp"
#include "service/protocol.hpp"
#include "service/replay.hpp"
#include "service/router.hpp"
#include "service/server.hpp"
#include "workload/native.hpp"
#include "workload/transforms.hpp"

namespace perfbench {

// Write-heavy: two keyed site streams at a light offered load (short
// queues), so protocol, router hop, session apply and journal do the work,
// not the shadow schedule.
const OnlineSpec kDurable = {"online-durable",
                             {{"sdsc95", "SDSC95", rtp::sdsc95_config, 0.1, 0.25},
                              {"sdsc96", "SDSC96", rtp::sdsc96_config, 0.1, 0.25}},
                             "max",
                             "backfill",
                             {4000.0, 8000.0, 16000.0},
                             4000.0,
                             2,
                             7};

const OnlineSpec& online_spec(const std::string& name) {
  if (name != kDurable.name) throw std::runtime_error("unknown online workload " + name);
  return kDurable;
}

// --- Inputs. -----------------------------------------------------------------

namespace {

/// Rescale the arrival times so the offered load (requested node-seconds
/// over machine capacity across the arrival span) is exactly `load`.  The
/// generator's own calibration leaves some seeds' arrivals squeezed into a
/// fraction of a day (SDSC95 scale 0.1, seed +10: 0.6 days instead of 14),
/// which buries the stream in one queueing episode.
rtp::Workload pin_offered_load(const rtp::Workload& w, double load) {
  double work = 0.0;
  for (const rtp::Job& job : w.jobs()) work += static_cast<double>(job.nodes) * job.runtime;
  const double span = w.jobs().back().submit - w.jobs().front().submit;
  const double offered = work / (static_cast<double>(w.machine_nodes()) * span);
  return rtp::compress_interarrival(w, load / offered);
}

}  // namespace

std::vector<Stream> prepare_streams(const OnlineSpec& spec, std::uint64_t seed,
                                    const std::string& dir, SetupTimes* times, bool record) {
  std::vector<Stream> out;
  for (const StreamSpec& ss : spec.streams) {
    Stream s;
    s.spec = ss;
    std::int64_t t0 = Tracer::now_ns();
    rtp::SyntheticConfig config = ss.config(ss.scale);
    config.seed += seed;
    const rtp::Workload generated = pin_offered_load(rtp::generate_synthetic(config), ss.load);
    s.trace_path = dir + "/" + ss.key + ".trace";
    rtp::write_native_file(s.trace_path, generated);
    // Everything downstream uses the file's view of the workload, exactly
    // as rtpd --trace does.
    s.workload = rtp::read_native_file(s.trace_path);
    if (times != nullptr) times->generate_s += seconds_between(t0, Tracer::now_ns());
    if (!record) {
      out.push_back(std::move(s));
      continue;
    }

    t0 = Tracer::now_ns();
    auto policy = rtp::make_policy(rtp::policy_kind_from_string(spec.policy));
    rtp::MaxRuntimePredictor live(s.workload);
    const rtp::RecordedRun recorded = rtp::record_session_log(s.workload, *policy, live);
    if (times != nullptr) times->record_s += seconds_between(t0, Tracer::now_ns());

    const std::string key = " key=" + ss.key;
    for (const rtp::Request& r : recorded.events) {
      s.lines.push_back(rtp::format_request(r) + key);
      s.is_estimate.push_back(false);
      if (r.kind != rtp::RequestKind::Submit) continue;
      s.lines.push_back("ESTIMATE " + std::to_string(r.id) + key);
      s.is_estimate.push_back(true);
    }
    out.push_back(std::move(s));
  }
  return out;
}

ServedSession::ServedSession(const OnlineSpec& spec, const rtp::Workload& workload)
    : policy(rtp::make_policy(rtp::policy_kind_from_string(spec.policy))),
      predictor(rtp::make_runtime_estimator(rtp::predictor_kind_from_string(spec.predictor),
                                            workload)) {}

std::unique_ptr<rtp::OnlineSession> ServedSession::session(const rtp::Workload& workload,
                                                           rtp::RuntimeEstimator& est) const {
  rtp::SessionOptions options;
  options.name = workload.name();
  return std::make_unique<rtp::OnlineSession>(workload.machine_nodes(), *policy, est, options);
}

void compute_expected(const OnlineSpec& spec, std::vector<Stream>& streams) {
  for (Stream& s : streams) {
    ServedSession served(spec, s.workload);
    auto session = served.session(s.workload, *served.predictor);
    rtp::ServerOptions options;
    options.threads = 1;
    rtp::ServiceServer server(*session, options);
    bool quit = false;
    s.expected.clear();
    for (std::size_t i = 0; i < s.lines.size(); ++i)
      s.expected.push_back(server.handle_line(s.lines[i], i + 1, &quit));
  }
}

// --- Server processes. -------------------------------------------------------

Fleet::~Fleet() {
  if (router) router->stop();
  for (auto& w : workers) w->stop();
}

double Fleet::peak_rss_mb() const {
  double total = router ? router->peak_rss_mb() : 0.0;
  for (const auto& w : workers) total += w->peak_rss_mb();
  return total;
}

rtp::PartitionMap partition_map(const std::vector<Stream>& streams,
                                const std::vector<std::uint16_t>& ports) {
  rtp::PartitionMap map;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    map.partitions.push_back({"127.0.0.1:" + std::to_string(ports[i])});
    map.assignments.emplace(streams[i].spec.key, i);
  }
  return map;
}

std::unique_ptr<Fleet> launch(const OnlineSpec& spec, const std::vector<Stream>& streams,
                              const RunOptions& options, int pass) {
  auto fleet = std::make_unique<Fleet>();
  const std::string tag = options.out_dir + "/pass" + std::to_string(pass);
  for (std::size_t i = 0; i < streams.size(); ++i) {
    std::vector<std::string> argv = {options.bin_dir + "/rtpd", "--trace", streams[i].trace_path,
                                     "--mode", "tcp", "--port", "0", "--policy", spec.policy,
                                     "--predictor", spec.predictor, "--threads", "2"};
    const std::string journal = tag + "-" + streams[i].spec.key + ".rtpj";
    std::remove(journal.c_str());
    std::remove((journal + ".retired").c_str());
    argv.insert(argv.end(), {"--journal", journal});
    fleet->workers.push_back(
        std::make_unique<Child>(argv, tag + "-" + streams[i].spec.key + ".log"));
  }
  for (auto& w : fleet->workers) fleet->worker_ports.push_back(w->wait_listening(60.0));
  const std::string map_path = tag + ".map";
  std::ofstream(map_path) << partition_map(streams, fleet->worker_ports).dump();
  fleet->router = std::make_unique<Child>(
      std::vector<std::string>{options.bin_dir + "/rtprouter", "--map", map_path, "--mode", "tcp",
                               "--port", "0", "--threads", "2"},
      tag + "-router.log");
  fleet->front_port = fleet->router->wait_listening(60.0);
  return fleet;
}

// --- Load generator. ---------------------------------------------------------

namespace {

void send_bytes(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("send failed");
    off += static_cast<std::size_t>(n);
  }
}

/// Sleep until steady-clock time `due_ns` (CLOCK_MONOTONIC on Linux).
void sleep_until_ns(std::int64_t due_ns) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(due_ns / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(due_ns % 1'000'000'000);
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

void sender(int fd, const Stream& s, ConnectionTrace& c, std::int64_t t0_ns, bool paced) {
  // Sleep rather than spin, so the generator does not take CPUs from the
  // servers; a 1 ns timer slack keeps the wake-ups close to the schedule.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const std::size_t n = s.lines.size();
  const auto due_ns = [&](std::size_t i) {
    return t0_ns + static_cast<std::int64_t>(c.intended_us[i] * 1e3);
  };
  std::string batch;
  std::size_t i = 0;
  sleep_until_ns(t0_ns);
  try {
    while (i < n) {
      if (paced) sleep_until_ns(due_ns(i));
      const std::int64_t now = Tracer::now_ns();
      batch.clear();
      const double sent_us = static_cast<double>(now - t0_ns) * 1e-3;
      // Everything already due goes out in one write (at most 64 lines
      // unpaced, so replies start flowing at once).
      std::size_t taken = 0;
      while (i < n && (paced ? due_ns(i) <= now : taken < 64)) {
        batch += s.lines[i];
        batch += '\n';
        c.sent_us[i] = sent_us;
        ++i;
        ++taken;
      }
      send_bytes(fd, batch);
    }
  } catch (const std::exception&) {
    c.transport_error = true;
  }
}

void receiver(int fd, ConnectionTrace& c, std::int64_t t0_ns) {
  const std::size_t n = c.intended_us.size();
  std::string buffer;
  std::vector<char> chunk(1 << 16);
  std::size_t k = 0;
  while (k < n) {
    const ssize_t got = ::recv(fd, chunk.data(), chunk.size(), 0);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) {
      c.transport_error = true;
      break;
    }
    const double now_us = static_cast<double>(Tracer::now_ns() - t0_ns) * 1e-3;
    buffer.append(chunk.data(), static_cast<std::size_t>(got));
    std::size_t start = 0;
    for (std::size_t nl; k < n && (nl = buffer.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      c.replies[k] = buffer.substr(start, nl - start);
      c.done_us[k] = now_us;
      ++k;
    }
    buffer.erase(0, start);
  }
}

}  // namespace

PassTrace run_pass(const std::vector<Stream>& streams, std::uint16_t port, double rate) {
  PassTrace pass;
  std::size_t total = 0;
  for (const Stream& s : streams) total += s.lines.size();
  std::vector<int> fds;
  for (const Stream& s : streams) {
    ConnectionTrace c;
    const std::size_t n = s.lines.size();
    // Each connection's share of the aggregate rate is proportional to its
    // length, so all streams end together.
    c.intended_us = rate > 0.0 ? open_loop_schedule(
                                     n, rate * static_cast<double>(n) / static_cast<double>(total))
                               : std::vector<double>(n, 0.0);
    c.sent_us.assign(n, -1.0);
    c.done_us.assign(n, -1.0);
    c.replies.assign(n, std::string());
    pass.connections.push_back(std::move(c));
    const int fd = connect_local(port);
    timeval tv{};
    tv.tv_sec = 60;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    std::string greeting;
    if (!read_line_slow(fd, &greeting)) throw std::runtime_error("no greeting");
    fds.push_back(fd);
  }
  const std::int64_t t0 = Tracer::now_ns() + 2'000'000;
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    threads.emplace_back(receiver, fds[i], std::ref(pass.connections[i]), t0);
    threads.emplace_back(sender, fds[i], std::cref(streams[i]), std::ref(pass.connections[i]),
                         t0, rate > 0.0);
  }
  for (std::thread& t : threads) t.join();
  double last = 0.0;
  for (const ConnectionTrace& c : pass.connections)
    for (const double d : c.done_us) last = std::max(last, d);
  pass.wall_s = last * 1e-6;
  for (const int fd : fds) ::close(fd);
  return pass;
}

PassStats score_pass(const std::vector<Stream>& streams, const PassTrace& pass) {
  PassStats st;
  std::vector<double> est, ev, late;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    const Stream& s = streams[i];
    const ConnectionTrace& c = pass.connections[i];
    for (std::size_t k = 0; k < s.lines.size(); ++k) {
      ++st.sent;
      if (c.done_us[k] < 0.0 || c.replies[k] != s.expected[k]) {
        if (st.failed < 3)
          std::fprintf(stderr, "perfbench: %s line %zu '%s': expected '%s', got '%s'\n",
                       s.spec.key.c_str(), k + 1, s.lines[k].c_str(), s.expected[k].c_str(),
                       c.done_us[k] < 0.0 ? "(no reply)" : c.replies[k].c_str());
        ++st.failed;
        if (c.replies[k].rfind("ERR", 0) == 0) ++st.err;
        continue;
      }
      ++st.ok;
      const double lat = latency_from_intended(c.intended_us[k], c.done_us[k]);
      (s.is_estimate[k] ? est : ev).push_back(lat);
      late.push_back(lateness(c.intended_us[k], c.sent_us[k]));
    }
    if (backlog_grows(c.intended_us, c.done_us)) st.backlog_grew = true;
    if (c.transport_error) st.transport_error = true;
  }
  // A line that failed counts as missing every latency limit.
  const std::size_t missing = st.failed;
  for (std::size_t m = 0; m < missing; ++m) est.push_back(1e12);
  st.estimate = summarize(est);
  st.event = summarize(ev);
  st.late = summarize(late);
  st.wall_s = pass.wall_s;
  return st;
}

// --- STATS. ------------------------------------------------------------------

std::map<std::string, std::string> stats_fields(std::uint16_t port, const std::string& verb) {
  const int fd = connect_local(port);
  std::string line;
  read_line_slow(fd, &line);  // greeting
  const std::string reply = exchange(fd, verb);
  ::close(fd);
  std::map<std::string, std::string> out;
  std::istringstream in(reply);
  std::string token;
  while (in >> token) {
    const auto eq = token.find('=');
    if (eq != std::string::npos) out[token.substr(0, eq)] = token.substr(eq + 1);
  }
  return out;
}

double field(const std::map<std::string, std::string>& f, const std::string& key) {
  const auto it = f.find(key);
  return it == f.end() ? 0.0 : std::strtod(it->second.c_str(), nullptr);
}

}  // namespace perfbench
