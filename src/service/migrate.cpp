#include "service/migrate.hpp"

#include <unistd.h>

#include <chrono>
#include <thread>
#include <utility>

#include "core/error.hpp"
#include "core/log.hpp"
#include "core/strings.hpp"
#include "service/client.hpp"
#include "service/io.hpp"
#include "service/protocol.hpp"

namespace rtp {
namespace {

/// Value of a `<key>=` token in an OK reply body; empty when absent.
std::string_view reply_field(std::string_view reply, std::string_view prefix) {
  for (const std::string_view token : split_whitespace(reply))
    if (starts_with(token, prefix)) return token.substr(prefix.size());
  return {};
}

std::uint64_t reply_u64(std::string_view reply, std::string_view prefix,
                        const std::string& context) {
  const std::string_view value = reply_field(reply, prefix);
  RTP_CHECK(!value.empty(),
            context + ": reply is missing " + std::string(prefix) + "...");
  const long long parsed = parse_int(value, context);
  RTP_CHECK(parsed >= 0, context + ": negative value");
  return static_cast<std::uint64_t>(parsed);
}

std::string describe(const MigrationReport& report) {
  return "migrated=1 partition=" + std::to_string(report.partition) +
         " from=" + report.from + " to=" + report.to +
         " map_version=" + std::to_string(report.map_version) +
         " seq=" + std::to_string(report.seq);
}

}  // namespace

std::string to_string(MigrationPhase phase) {
  switch (phase) {
    case MigrationPhase::Idle: return "idle";
    case MigrationPhase::Attach: return "attach";
    case MigrationPhase::CatchUp: return "catchup";
    case MigrationPhase::Pause: return "pause";
    case MigrationPhase::Retire: return "retire";
    case MigrationPhase::Drain: return "drain";
    case MigrationPhase::Promote: return "promote";
    case MigrationPhase::Publish: return "publish";
    case MigrationPhase::Done: return "done";
    case MigrationPhase::Rollback: return "rollback";
    case MigrationPhase::Abort: return "abort";
  }
  return "unknown";
}

MigrationCoordinator::MigrationCoordinator(Router& router, MigrationOptions options)
    : router_(router), options_(std::move(options)) {}

std::string MigrationCoordinator::worker_request(const std::string& address,
                                                 const std::string& line) {
  std::string host, error;
  std::uint16_t port = 0;
  RTP_CHECK(io::split_hostport(address, &host, &port, &error), "migrate: " + error);
  const int fd = io::dial_tcp_rcvtimeo(host, port, options_.connect_timeout_ms,
                                       options_.read_timeout_ms, &error);
  RTP_CHECK(fd >= 0, address + ": " + error);
  // 1 MiB, the client's and the router's reply cap, bounds a runaway worker.
  std::string buffer, reply;
  const bool ok = exchange_line(fd, &buffer, line, std::size_t{1} << 20, address, &reply,
                                &error);
  ::close(fd);
  RTP_CHECK(ok, error);
  return reply;
}

std::string MigrationCoordinator::require_ok(std::string reply,
                                             const std::string& context) {
  RTP_CHECK(starts_with(reply, "OK"), context + ": " + reply);
  return reply;
}

MigrationReport MigrationCoordinator::migrate_partition(std::size_t partition,
                                                        const std::string& to) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (busy_) {
      MigrationReport report;
      report.partition = partition;
      report.to = to;
      report.phase = MigrationPhase::Abort;
      report.error = "a migration is already in flight";
      return report;
    }
    busy_ = true;
  }
  MigrationReport report = run_migration(partition, to);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    busy_ = false;
    last_report_ = report;
  }
  return report;
}

MigrationReport MigrationCoordinator::run_migration(std::size_t partition,
                                                    const std::string& to) {
  using Clock = std::chrono::steady_clock;
  MigrationReport report;
  report.partition = partition;
  report.to = to;
  const auto enter = [&](MigrationPhase phase) {
    report.phase = phase;
    log_info("migration partition ", partition, " -> ", to, ": ", to_string(phase));
    if (phase_hook_) phase_hook_(phase);
  };
  const auto failed = [&](const std::string& why) {
    report.ok = false;
    report.error = why;
    log_warn("migration partition ", partition, " failed in ",
             to_string(report.phase), ": ", why);
    return report;
  };

  std::string from;
  std::string encoded;
  bool paused = false;
  bool retired_src = false;
  bool promoted = false;
  bool source_lost = false;
  try {
    enter(MigrationPhase::Attach);
    PartitionMap map = router_.map();
    RTP_CHECK(partition < map.partitions.size(),
              "partition " + std::to_string(partition) + " out of range (map has " +
                  std::to_string(map.partitions.size()) + ")");
    from = map.partitions[partition][0];
    report.from = from;
    for (const std::string& replica : map.partitions[partition])
      RTP_CHECK(replica != to,
                to + " is already a replica of partition " + std::to_string(partition));
    // The destination must be a fresh warm follower exposing its
    // replication listener; discover the listener port off its STATS.
    const std::string dst_stats =
        require_ok(worker_request(to, "STATS"), "destination STATS");
    RTP_CHECK(reply_field(dst_stats, "repl_role=") == "follower",
              "destination " + to +
                  " is not a replication follower (start it with rtpd --follow)");
    const std::uint64_t repl_port =
        reply_u64(dst_stats, "repl_port=", "destination repl_port");
    RTP_CHECK(repl_port > 0 && repl_port <= 65535,
              "destination " + to + " reports no replication listener");
    std::string dst_host, dst_error;
    std::uint16_t dst_port = 0;
    RTP_CHECK(io::split_hostport(to, &dst_host, &dst_port, &dst_error),
              "migrate destination: " + dst_error);
    const std::string repl_addr = dst_host + ":" + std::to_string(repl_port);
    require_ok(worker_request(from, "MIGRATE to=" + repl_addr), "attach source");

    enter(MigrationPhase::CatchUp);
    const auto catchup_deadline =
        Clock::now() + std::chrono::milliseconds(options_.catchup_timeout_ms);
    for (;;) {
      const std::string status =
          require_ok(worker_request(from, "MIGRATE status"), "catch-up status");
      if (reply_field(status, "connected=") == "1" &&
          reply_u64(status, "lag=", "catch-up lag") == 0)
        break;
      RTP_CHECK(Clock::now() < catchup_deadline,
                "destination did not catch up within " +
                    std::to_string(options_.catchup_timeout_ms) + "ms");
      std::this_thread::sleep_for(std::chrono::milliseconds(options_.poll_ms));
    }

    enter(MigrationPhase::Pause);
    router_.pause_partition(partition);
    paused = true;

    enter(MigrationPhase::Retire);
    PartitionMap next = map;
    next.partitions[partition] = {to};
    next.version = map.version + 1;
    report.map_version = next.version;
    encoded = encode_map_line(next);
    // Store the new map on the source *before* retiring it: from the first
    // moved reply on, a stale router can MAPGET the source and self-heal.
    require_ok(worker_request(from, "MAPSET map=" + encoded), "store map on source");
    const std::string retired = require_ok(
        worker_request(from,
                       "MIGRATE retire version=" + std::to_string(next.version)),
        "retire source");
    retired_src = true;
    const std::uint64_t seq = reply_u64(retired, "seq=", "retire seq");
    report.seq = seq;

    enter(MigrationPhase::Drain);
    const auto drain_deadline =
        Clock::now() + std::chrono::milliseconds(options_.drain_timeout_ms);
    bool drained = false;
    while (Clock::now() < drain_deadline) {
      std::string status;
      try {
        status = require_ok(worker_request(from, "MIGRATE status"), "drain status");
      } catch (const Error&) {
        source_lost = true;
        break;
      }
      if (reply_u64(status, "acked=", "drain acked") >= seq) {
        drained = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(options_.poll_ms));
    }
    if (source_lost) {
      // The source died *after* durably retiring — it can never accept
      // another mutation.  Promote only on proof the destination holds
      // everything the source committed; otherwise leave the partition
      // down for the operator rather than lose acknowledged events.
      const std::string dst =
          require_ok(worker_request(to, "STATS"), "destination STATS");
      RTP_CHECK(reply_u64(dst, "repl_applied_seq=", "destination applied seq") >= seq,
                "source died mid-drain and destination is behind retire seq " +
                    std::to_string(seq) + "; not promoting (no split-brain)");
      drained = true;
    }
    if (!drained) {
      // Drain window expired: the destination is alive but behind.  Roll
      // back — the old owner resumes and nothing moved.
      enter(MigrationPhase::Rollback);
      require_ok(worker_request(from, "MIGRATE resume"), "rollback resume");
      try {
        worker_request(from, "MIGRATE detach");
      } catch (const Error& e) {
        log_warn("rollback detach: ", e.what());
      }
      retired_src = false;
      router_.unpause_partition();
      paused = false;
      return failed("drain timed out after " +
                    std::to_string(options_.drain_timeout_ms) +
                    "ms; rolled back to " + from);
    }

    enter(MigrationPhase::Promote);
    if (!source_lost) {
      try {
        worker_request(from, "MIGRATE detach");
      } catch (const Error& e) {
        log_warn("detach source: ", e.what());
      }
    }
    require_ok(worker_request(to, "PROMOTE"), "promote destination");
    promoted = true;
    try {
      // The new owner serves the map too, so routers that discover it can
      // refresh off either end of the move.
      require_ok(worker_request(to, "MAPSET map=" + encoded),
                 "store map on destination");
    } catch (const Error& e) {
      log_warn("store map on destination: ", e.what());
    }

    enter(MigrationPhase::Publish);
    router_.install_map(next);
    for (const std::string& peer : options_.peers) {
      // Best-effort push: a peer that misses it self-heals on its first
      // moved reply (pull-on-version-mismatch fallback).
      try {
        require_ok(worker_request(peer, "MAPSET map=" + encoded),
                   "push map to " + peer);
      } catch (const Error& e) {
        log_warn("map push to peer ", peer, ": ", e.what());
      }
    }
    router_.unpause_partition();
    paused = false;

    enter(MigrationPhase::Done);
    report.ok = true;
    return report;
  } catch (const Error& e) {
    if (retired_src && !promoted) {
      // The source durably refused writes but the cutover never happened:
      // hand the partition back.
      try {
        worker_request(from, "MIGRATE resume");
        worker_request(from, "MIGRATE detach");
      } catch (const Error& rollback_error) {
        log_warn("migration rollback failed: ", rollback_error.what());
      }
    } else if (!retired_src && !from.empty()) {
      try {
        worker_request(from, "MIGRATE detach");
      } catch (const Error&) {
        // The source may be gone or never attached; nothing to undo.
      }
    }
    if (paused) router_.unpause_partition();
    return failed(e.what());
  }
}

MigrationReport MigrationCoordinator::rebalance(const std::string& to) {
  MigrationReport report;
  report.phase = MigrationPhase::Abort;
  const std::size_t hottest = router_.hottest_partition();
  const PartitionMap map = router_.map();
  if (hottest >= map.partitions.size()) {
    report.error = "no load recorded yet; nothing to rebalance";
    return report;
  }
  report.partition = hottest;
  std::string dest = to;
  if (dest.empty()) {
    for (const std::string& spare : options_.spares) {
      bool in_map = false;
      for (const std::vector<std::string>& replicas : map.partitions)
        for (const std::string& replica : replicas)
          if (replica == spare) in_map = true;
      if (!in_map) {
        dest = spare;
        break;
      }
    }
    if (dest.empty()) {
      report.error = "no spare worker available (all configured spares are in the map)";
      return report;
    }
  }
  return migrate_partition(hottest, dest);
}

MigrationReport MigrationCoordinator::last_report() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_report_;
}

std::string MigrationCoordinator::handle(const Request& request,
                                         std::size_t line_number) {
  (void)line_number;  // the router rewrites ERR line= tokens on the way out
  if (request.kind == RequestKind::Rebalance) {
    const MigrationReport report = rebalance(request.migrate_to);
    if (!report.ok) throw ProtocolError(ProtocolErrorCode::State, report.error);
    return format_ok("rebalanced=1 " + describe(report).substr(11));
  }
  if (request.migrate_action == "status") {
    std::lock_guard<std::mutex> lock(mutex_);
    if (busy_) return format_ok("migration=running");
    if (last_report_.phase == MigrationPhase::Idle) return format_ok("migration=idle");
    std::string out = "migration=idle last_ok=" + std::string(last_report_.ok ? "1" : "0") +
                      " last_phase=" + to_string(last_report_.phase) +
                      " last_map_version=" + std::to_string(last_report_.map_version);
    if (!last_report_.error.empty()) out += " last_error=" + last_report_.error;
    return format_ok(out);
  }
  if (request.migrate_action != "attach")
    throw ProtocolError(ProtocolErrorCode::State,
                        "router MIGRATE supports 'MIGRATE key=<k> to=<addr>' and "
                        "'MIGRATE status'; send '" + request.migrate_action +
                            "' to the worker directly");
  const std::size_t partition = router_.map().route(request.key);
  const MigrationReport report = migrate_partition(partition, request.migrate_to);
  if (!report.ok) throw ProtocolError(ProtocolErrorCode::State, report.error);
  return format_ok(describe(report));
}

}  // namespace rtp
