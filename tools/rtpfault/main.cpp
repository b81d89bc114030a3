// rtpfault — deterministic fault-injecting TCP proxy.
//
// Sits between an RTP/1 client and a server (or between a replication
// primary and a follower) and perturbs the byte stream on a scripted,
// reproducible schedule: delays, drops, torn writes, hard closes,
// partitions, slow trickles, seeded jitter.  See rtpfault/faults.hpp for
// the script grammar.
//
//   # chaos between a primary and a follower's replication port: swallow
//   # the 3rd primary→follower chunk (forcing a resync) and tear the 7th
//   # mid-frame:
//   ./rtpfault --listen 7510 --target 127.0.0.1:7500
//              --script 'up:drop@3 up:torn@7=5' --seed 7
//   ./rtpd ... --replicate-to 127.0.0.1:7510
//
//   # SIGPIPE regression: hard-close instead of delivering the server's
//   # reply, so the server writes into a dead socket:
//   ./rtpfault --listen 7511 --target 127.0.0.1:7421 --script 'down:close@1'
//
// The proxy is single-threaded and applies faults inline (a delay on one
// connection stalls the others too — acceptable for a chaos tool that
// proxies one link).  All randomness comes from --seed via src/core/rng,
// so a (script, seed) pair replays the identical timeline.  On SIGINT /
// SIGTERM it prints chunk and fault counters to stderr and exits.
#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <unistd.h>

#include "core/args.hpp"
#include "core/error.hpp"
#include "core/log.hpp"
#include "rtpfault/faults.hpp"
#include "service/io.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;
extern "C" void on_signal(int) { g_stop = 1; }

struct Link {
  int client_fd = -1;  ///< downstream (the proxied client)
  int server_fd = -1;  ///< upstream (the real server)
};

void close_link(Link& link) {
  if (link.client_fd >= 0) ::close(link.client_fd);
  if (link.server_fd >= 0) ::close(link.server_fd);
  link.client_fd = -1;
  link.server_fd = -1;
}

/// Forward one just-received chunk per the schedule's verdict.  Returns
/// false when the link must be torn down.
bool forward_chunk(Link& link, rtpfault::Direction direction, const char* data,
                   std::size_t len, rtpfault::Schedule& schedule, bool verbose) {
  const rtpfault::Action action = schedule.next(direction);
  const char* name = direction == rtpfault::Direction::Up ? "up" : "down";
  if (action.stall_ms > 0) {
    if (verbose)
      rtp::log_info("rtpfault: partition ", action.stall_ms, "ms at ", name, " chunk ",
                    schedule.chunks_seen(direction));
    std::this_thread::sleep_for(std::chrono::milliseconds(action.stall_ms));
  }
  if (action.delay_ms > 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(action.delay_ms));
  if (action.drop) {
    if (verbose)
      rtp::log_info("rtpfault: ", action.close ? "close" : "drop", " at ", name,
                    " chunk ", schedule.chunks_seen(direction));
    return !action.close;
  }
  const int out_fd =
      direction == rtpfault::Direction::Up ? link.server_fd : link.client_fd;
  std::size_t limit = len;
  if (action.torn_bytes < limit) {
    limit = static_cast<std::size_t>(action.torn_bytes);
    if (verbose)
      rtp::log_info("rtpfault: torn write ", limit, "/", len, " bytes at ", name,
                    " chunk ", schedule.chunks_seen(direction));
  }
  if (action.slow_bytes > 0) {
    for (std::size_t off = 0; off < limit;) {
      const std::size_t piece =
          limit - off < action.slow_bytes ? limit - off
                                          : static_cast<std::size_t>(action.slow_bytes);
      if (!rtp::io::send_all(out_fd, data + off, piece).ok()) return false;
      off += piece;
      if (off < limit) std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  } else if (!rtp::io::send_all(out_fd, data, limit).ok()) {
    return false;
  }
  return !action.close;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    rtp::ArgParser args(argc, argv);
    args.add_option("listen", "port to accept proxied clients on (0 = ephemeral)", "0");
    args.add_option("target", "host:port the proxy forwards to", "127.0.0.1:7421");
    args.add_option("script", "fault schedule (see rtpfault/faults.hpp)", "");
    args.add_option("seed", "jitter RNG seed", "1381258310");
    args.add_option("connect-timeout-ms", "upstream connect timeout", "2000");
    args.add_flag("verbose", "log every fired fault to stderr");
    if (!args.parse()) return 0;
    const bool verbose = args.flag("verbose");
    rtp::set_log_level(verbose ? rtp::LogLevel::Info : rtp::LogLevel::Warn);

    std::string target_host;
    std::uint16_t target_port = 0;
    {
      std::string error;
      RTP_CHECK(rtp::io::split_hostport(args.str("target"), &target_host, &target_port,
                                        &error),
                "--target: " + error);
    }
    rtpfault::Schedule schedule(rtpfault::parse_script(args.str("script")),
                                static_cast<std::uint64_t>(args.integer("seed")));
    const std::uint32_t connect_timeout_ms =
        static_cast<std::uint32_t>(args.integer("connect-timeout-ms"));

    std::uint16_t listen_port = 0;
    const int listen_fd = rtp::io::listen_loopback(
        static_cast<std::uint16_t>(args.integer("listen")), &listen_port);
    std::cerr << "rtpfault listening on 127.0.0.1:" << listen_port << " -> "
              << target_host << ":" << target_port << "\n";

    struct sigaction sa{};
    sa.sa_handler = on_signal;
    sigemptyset(&sa.sa_mask);
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
    // Peers hard-close by design here; EPIPE must reach the io wrappers.
    struct sigaction ignore_pipe{};
    ignore_pipe.sa_handler = SIG_IGN;
    sigemptyset(&ignore_pipe.sa_mask);
    ::sigaction(SIGPIPE, &ignore_pipe, nullptr);

    std::vector<Link> links;
    std::uint64_t accepted = 0;
    while (g_stop == 0) {
      std::vector<pollfd> fds;
      fds.push_back({listen_fd, POLLIN, 0});
      for (const Link& link : links) {
        fds.push_back({link.client_fd, POLLIN, 0});
        fds.push_back({link.server_fd, POLLIN, 0});
      }
      // `fds` describes exactly this many links; anything accepted below
      // joins the poll set on the next iteration.
      const std::size_t polled = links.size();
      const int ready = ::poll(fds.data(), fds.size(), 200);
      if (ready < 0) {
        if (errno == EINTR) continue;
        rtp::fail(std::string("poll: ") + std::strerror(errno));
      }
      if (ready == 0) continue;

      if ((fds[0].revents & POLLIN) != 0) {
        const int client = rtp::io::accept_tcp(listen_fd);
        if (client >= 0) {
          std::string error;
          const int server =
              rtp::io::dial_tcp(target_host, target_port, connect_timeout_ms, &error);
          if (server < 0) {
            rtp::log_warn("rtpfault: upstream dial failed: ", error);
            ::close(client);
          } else {
            links.push_back({client, server});
            ++accepted;
            if (verbose) rtp::log_info("rtpfault: link #", accepted, " up");
          }
        }
      }

      // Pump every readable fd.  Faults apply inline; a dead side tears
      // down the whole link (this proxy never half-closes).  Dead links are
      // only marked here and erased after the pass: erasing mid-loop would
      // shift `links` out of step with the `fds` it was polled as.
      for (std::size_t i = 0; i < polled; ++i) {
        Link& link = links[i];
        const pollfd& client_poll = fds[1 + 2 * i];
        const pollfd& server_poll = fds[2 + 2 * i];
        bool alive = true;
        for (int side = 0; side < 2 && alive; ++side) {
          const pollfd& p = side == 0 ? client_poll : server_poll;
          if ((p.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
          const rtpfault::Direction direction =
              side == 0 ? rtpfault::Direction::Up : rtpfault::Direction::Down;
          char chunk[65536];
          const rtp::io::IoResult r = rtp::io::recv_some(p.fd, chunk, sizeof(chunk));
          if (!r.ok() || r.bytes == 0) {
            alive = false;
          } else {
            alive = forward_chunk(link, direction, chunk, r.bytes, schedule, verbose);
          }
        }
        if (!alive) {
          if (verbose) rtp::log_info("rtpfault: link down");
          close_link(link);
          link.client_fd = -1;  // erased below, after the fds mapping dies
        }
      }
      links.erase(std::remove_if(links.begin(), links.end(),
                                 [](const Link& l) { return l.client_fd < 0; }),
                  links.end());
    }

    for (Link& link : links) close_link(link);
    ::close(listen_fd);
    std::cerr << "rtpfault done: links=" << accepted
              << " up_chunks=" << schedule.chunks_seen(rtpfault::Direction::Up)
              << " down_chunks=" << schedule.chunks_seen(rtpfault::Direction::Down)
              << " faults=" << schedule.faults_fired() << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "rtpfault: " << e.what() << "\n";
    return 1;
  }
}
