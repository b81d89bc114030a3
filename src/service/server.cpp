#include "service/server.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/error.hpp"
#include "core/log.hpp"
#include "core/strings.hpp"
#include "service/io.hpp"
#include "service/journal.hpp"
#include "service/replication.hpp"
#include "service/router.hpp"

namespace rtp {
namespace {

/// Decrements the pending-request gate on every exit path.
class PendingGuard {
 public:
  explicit PendingGuard(std::atomic<std::size_t>& pending) : pending_(pending) {}
  ~PendingGuard() { pending_.fetch_sub(1, std::memory_order_relaxed); }
  PendingGuard(const PendingGuard&) = delete;
  PendingGuard& operator=(const PendingGuard&) = delete;

 private:
  std::atomic<std::size_t>& pending_;
};

/// Non-negative integer field of a "retired version=<v> seq=<s>" line.
std::uint64_t marker_field(const std::vector<std::string_view>& tokens,
                           std::string_view prefix, const std::string& path) {
  for (const std::string_view token : tokens) {
    if (!starts_with(token, prefix)) continue;
    const long long value = parse_int(token.substr(prefix.size()), "retire marker");
    RTP_CHECK(value >= 0, "negative value in retire marker '" + path + "'");
    return static_cast<std::uint64_t>(value);
  }
  fail("retire marker '" + path + "' is missing " + std::string(prefix) + "...");
}

}  // namespace

bool read_retire_marker(const std::string& path, RetireMarker* out) {
  std::ifstream in(path);
  if (!in.good()) return false;
  std::string line;
  std::getline(in, line);
  const auto tokens = split_whitespace(line);
  RTP_CHECK(!tokens.empty() && tokens[0] == "retired",
            "malformed retire marker '" + path + "': '" + line + "'");
  out->map_version = marker_field(tokens, "version=", path);
  out->seq = marker_field(tokens, "seq=", path);
  RTP_CHECK(out->map_version >= 1, "retire marker '" + path + "' has version 0");
  return true;
}

void write_retire_marker(const std::string& path, const RetireMarker& marker) {
  const std::string tmp = path + ".tmp";
  {
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    RTP_CHECK(fd >= 0,
              "cannot write retire marker '" + tmp + "': " + std::strerror(errno));
    const std::string text = "retired version=" + std::to_string(marker.map_version) +
                             " seq=" + std::to_string(marker.seq) + "\n";
    const io::IoResult w = io::write_all(fd, text.data(), text.size());
    const io::IoResult s = io::fsync_fd(fd);
    ::close(fd);
    RTP_CHECK(w.ok() && s.ok(), "retire marker write failed for '" + tmp + "'");
  }
  RTP_CHECK(std::rename(tmp.c_str(), path.c_str()) == 0,
            "retire marker rename failed for '" + path + "': " + std::strerror(errno));
}

void remove_retire_marker(const std::string& path) {
  if (std::remove(path.c_str()) != 0 && errno != ENOENT)
    fail("cannot remove retire marker '" + path + "': " + std::strerror(errno));
}

ServiceServer::ServiceServer(OnlineSession& session, ServerOptions options)
    : session_(session),
      options_(options),
      started_(std::chrono::steady_clock::now()),
      transport_(
          io::LineServerOptions{"rtpd", "server", options.threads, options.max_connections,
                                options.write_timeout_ms, options.max_line_bytes},
          [this](std::string_view line, std::size_t line_number, bool* quit) {
            return handle_line(line, line_number, quit);
          },
          options.greeting ? io::LineServer::Greeter([this] { return greeting(); })
                           : io::LineServer::Greeter()) {
  // A source that was kill -9'd after retiring must come back retired —
  // the destination owns the session now, and answering events here would
  // be a split brain.
  RetireMarker marker;
  if (!options_.retire_sidecar.empty() &&
      read_retire_marker(options_.retire_sidecar, &marker)) {
    retired_seq_ = marker.seq;
    retired_version_.store(marker.map_version, std::memory_order_release);
    retired_.store(true, std::memory_order_release);
    log_info("rtpd starting retired (map_version ", marker.map_version, ", seq ",
             marker.seq, "); MIGRATE resume to reclaim the session");
  }
}

std::string ServiceServer::greeting() const {
  // A TCP client can connect (and be greeted) while another connection's
  // request is mutating the session, so the snapshot needs the same lock
  // that serializes request handling.
  std::lock_guard<std::mutex> lock(mutex_);
  const SystemState& state = session_.state();
  return std::string(kProtocolVersion) + " ready nodes=" +
         std::to_string(state.machine_nodes()) + " session=" + session_.options().name;
}

template <typename Fn>
void ServiceServer::journaled_event(std::string_view line, Fn&& apply) {
  JournalWriter* journal = options_.journal;
  if (journal == nullptr) {
    apply();
    return;
  }
  // Write-ahead: append first, apply second.  A rejected event rewinds the
  // journal so it only ever holds accepted history; an accepted event is
  // committed (fsync per policy) before the caller renders its OK.
  const std::size_t mark = journal->append_event(line);
  try {
    apply();
  } catch (...) {
    journal->rewind_to(mark);
    throw;
  }
  journal->commit();
  replicate_commit();
  ++records_since_snapshot_;
  maybe_snapshot();
}

void ServiceServer::replicate_commit() {
  if (options_.replication != nullptr && options_.journal != nullptr)
    options_.replication->advance(options_.journal->size());
}

void ServiceServer::journal_prediction(JobId id, std::size_t registered_before) {
  JournalWriter* journal = options_.journal;
  if (journal == nullptr || session_.recorded_predictions() <= registered_before) return;
  const Seconds wait = session_.recorded_prediction(id);
  if (wait == kNoTime) return;  // the new registration was for another job
  journal->append_prediction(id, wait);
  journal->commit();
  replicate_commit();
  ++records_since_snapshot_;
  maybe_snapshot();
}

void ServiceServer::maybe_snapshot() {
  JournalWriter* journal = options_.journal;
  if (journal == nullptr || options_.snapshot_every == 0) return;
  if (records_since_snapshot_ < options_.snapshot_every) return;
  try {
    std::ostringstream snapshot;
    session_.serialize(snapshot);
    journal->append_snapshot(snapshot.str());
    journal->commit();
    replicate_commit();
    records_since_snapshot_ = 0;
  } catch (const Error& e) {
    // The event tail is still intact, so recovery works without this
    // snapshot; warn and try again at the next cadence point.
    log_warn("rtpd snapshot failed: ", e.what());
    records_since_snapshot_ = 0;
  }
}

void ServiceServer::snapshot_now() {
  std::lock_guard<std::mutex> lock(mutex_);
  JournalWriter* journal = options_.journal;
  if (journal == nullptr) return;
  std::ostringstream snapshot;
  session_.serialize(snapshot);
  journal->append_snapshot(snapshot.str());
  journal->commit();
  journal->sync();
  replicate_commit();
  records_since_snapshot_ = 0;
}

ReplicationSnapshot ServiceServer::replication_snapshot() {
  std::lock_guard<std::mutex> lock(mutex_);
  ReplicationSnapshot snapshot;
  std::ostringstream out;
  session_.serialize(out);
  snapshot.text = out.str();
  snapshot.seq =
      options_.replication != nullptr ? options_.replication->last_committed_seq() : 0;
  return snapshot;
}

std::string ServiceServer::render(const Request& request, std::string_view line,
                                  bool* quit) {
  const auto ok_version = [this] {
    return format_ok("version=" + std::to_string(session_.state_version()));
  };
  // Follower gate: a warm standby mirrors the primary's journal, so local
  // mutations would fork history.  Queries stay answerable (that is the
  // point of a warm standby); mutating verbs bounce to the primary.
  const bool mutating = request.kind == RequestKind::Submit ||
                        request.kind == RequestKind::Start ||
                        request.kind == RequestKind::Finish ||
                        request.kind == RequestKind::Cancel ||
                        request.kind == RequestKind::Fail ||
                        request.kind == RequestKind::NodeDown ||
                        request.kind == RequestKind::NodeUp;
  // Retired gate: after a partition hand-off the destination owns the
  // session, so events AND queries bounce with the map version that moved
  // them — answering queries from the stale copy here would break the
  // byte-identity invariant.  Control verbs (STATS, MAPGET, MIGRATE, ...)
  // keep working so operators and routers can observe and heal.
  const bool session_addressed = mutating ||
                                 request.kind == RequestKind::Estimate ||
                                 request.kind == RequestKind::Interval ||
                                 request.kind == RequestKind::State;
  if (session_addressed && retired())
    throw MovedError(retired_version_.load(std::memory_order_acquire),
                     "session moved; refetch partition map");
  if (mutating && read_only())
    throw ProtocolError(ProtocolErrorCode::ReadOnly,
                        "follower is read-only; send events to the primary");
  switch (request.kind) {
    case RequestKind::Hello:
      if (request.version != kProtocolVersion)
        throw ProtocolError(ProtocolErrorCode::Proto,
                            "unsupported version '" + request.version + "', want " +
                                std::string(kProtocolVersion));
      return format_ok("proto=" + std::string(kProtocolVersion));
    case RequestKind::Submit:
      journaled_event(line, [&] { session_.submit(request.job, request.time); });
      return ok_version();
    case RequestKind::Start:
      journaled_event(line, [&] { session_.start(request.id, request.time); });
      return ok_version();
    case RequestKind::Finish:
      journaled_event(line, [&] { session_.finish(request.id, request.time); });
      return ok_version();
    case RequestKind::Cancel:
      journaled_event(line, [&] { session_.cancel(request.id, request.time); });
      return ok_version();
    case RequestKind::Fail:
      journaled_event(line, [&] { session_.fail(request.id, request.time); });
      return ok_version();
    case RequestKind::NodeDown:
      journaled_event(line, [&] { session_.node_down(request.nodes, request.time); });
      return ok_version();
    case RequestKind::NodeUp:
      journaled_event(line, [&] { session_.node_up(request.nodes, request.time); });
      return ok_version();
    case RequestKind::Estimate: {
      const std::uint64_t hits_before = session_.counters().cache_hits;
      const std::size_t registered_before = session_.recorded_predictions();
      const Seconds wait = session_.estimate_wait(request.id);
      const bool cached = session_.counters().cache_hits > hits_before;
      journal_prediction(request.id, registered_before);
      return format_ok("job=" + std::to_string(request.id) +
                       " wait=" + format_number(wait) +
                       " start=" + format_number(session_.now() + wait) +
                       " cached=" + (cached ? "1" : "0"));
    }
    case RequestKind::Interval: {
      const std::size_t registered_before = session_.recorded_predictions();
      const WaitInterval band = session_.estimate_interval(
          request.id, request.optimistic_scale, request.pessimistic_scale);
      journal_prediction(request.id, registered_before);
      return format_ok("job=" + std::to_string(request.id) +
                       " wait=" + format_number(band.expected) +
                       " optimistic=" + format_number(band.optimistic) +
                       " pessimistic=" + format_number(band.pessimistic));
    }
    case RequestKind::State: {
      const SystemState& s = session_.state();
      return format_ok("now=" + format_number(session_.now()) +
                       " version=" + std::to_string(session_.state_version()) +
                       " nodes=" + std::to_string(s.machine_nodes()) +
                       " free=" + std::to_string(s.free_nodes()) +
                       " down=" + std::to_string(s.down_nodes()) +
                       " running=" + std::to_string(s.running().size()) +
                       " queued=" + std::to_string(s.queue().size()));
    }
    case RequestKind::Stats:
      return format_ok(stats_body(request.stats_hist));
    case RequestKind::Promote:
      if (follower_ == nullptr)
        throw ProtocolError(ProtocolErrorCode::State,
                            "PROMOTE: this server is not a follower");
      if (!read_only())
        throw ProtocolError(ProtocolErrorCode::State,
                            "PROMOTE: already promoted");
      follower_->promote_locked();
      return format_ok("role=primary seq=" + std::to_string(follower_->applied_seq()));
    case RequestKind::Migrate:
      return render_migrate(request);
    case RequestKind::MapSet:
      return render_mapset(request);
    case RequestKind::MapGet:
      return render_mapget();
    case RequestKind::Rebalance:
      throw ProtocolError(ProtocolErrorCode::State,
                          "REBALANCE is a router verb; send it to rtprouter");
    case RequestKind::Quit:
      if (quit != nullptr) *quit = true;
      return format_ok("bye");
  }
  fail("unreachable request kind");
}

std::string ServiceServer::render_migrate(const Request& request) {
  ReplicationSender* sender = options_.replication;
  const auto target = [this] {
    return migration_target_host_ + ":" + std::to_string(migration_target_port_);
  };
  if (request.migrate_action == "attach") {
    if (sender == nullptr)
      throw ProtocolError(ProtocolErrorCode::State,
                          "MIGRATE: no replication sender (run rtpd with --journal)");
    if (!migration_target_host_.empty())
      throw ProtocolError(ProtocolErrorCode::State,
                          "MIGRATE: already migrating to " + target());
    std::string host, error;
    std::uint16_t port = 0;
    if (!io::split_hostport(request.migrate_to, &host, &port, &error))
      throw ProtocolError(ProtocolErrorCode::Parse, "MIGRATE to=: " + error);
    sender->add_follower_live(host, port);
    migration_target_host_ = std::move(host);
    migration_target_port_ = port;
    return format_ok("migration=attached target=" + target());
  }
  if (request.migrate_action == "status") {
    if (migration_target_host_.empty()) {
      std::string out = "migration=none";
      if (retired())
        out += " retired=1 map_version=" +
               std::to_string(retired_version_.load(std::memory_order_acquire)) +
               " seq=" + std::to_string(retired_seq_);
      return format_ok(out);
    }
    FollowerStatus status;
    const bool found =
        sender != nullptr &&
        sender->follower_status(migration_target_host_, migration_target_port_, &status);
    RTP_CHECK(found, "migration target " + target() + " vanished from the sender");
    return format_ok(
        "migration=attached target=" + target() +
        " connected=" + (status.connected ? "1" : "0") +
        " acked=" + std::to_string(status.acked_seq) +
        " lag=" + std::to_string(status.lag) +
        " last_seq=" + std::to_string(sender->last_committed_seq()) +
        (retired() ? " retired=1 seq=" + std::to_string(retired_seq_) : std::string()));
  }
  if (request.migrate_action == "retire") {
    if (retired()) {
      // Idempotent for coordinator retries, but never under a different
      // version: that would mean two migrations raced.
      if (retired_version_.load(std::memory_order_acquire) != request.map_version)
        throw ProtocolError(ProtocolErrorCode::State,
                            "MIGRATE retire: already retired at map_version " +
                                std::to_string(retired_version_.load()));
      return format_ok("retired=1 seq=" + std::to_string(retired_seq_) +
                       " map_version=" + std::to_string(request.map_version));
    }
    if (sender == nullptr)
      throw ProtocolError(ProtocolErrorCode::State,
                          "MIGRATE retire: no replication sender");
    const std::uint64_t seq = sender->last_committed_seq();
    // Durability before visibility: the marker hits disk before the OK (and
    // before any straggler sees code=moved), so kill -9 at any point leaves
    // the source either owning the session or durably retired — never both.
    if (!options_.retire_sidecar.empty())
      write_retire_marker(options_.retire_sidecar, {request.map_version, seq});
    retired_seq_ = seq;
    retired_version_.store(request.map_version, std::memory_order_release);
    retired_.store(true, std::memory_order_release);
    log_info("rtpd retired session at seq ", seq, " (map_version ",
             request.map_version, ")");
    return format_ok("retired=1 seq=" + std::to_string(seq) +
                     " map_version=" + std::to_string(request.map_version));
  }
  if (request.migrate_action == "resume") {
    if (!options_.retire_sidecar.empty()) remove_retire_marker(options_.retire_sidecar);
    const bool was_retired = retired_.exchange(false, std::memory_order_acq_rel);
    retired_version_.store(0, std::memory_order_release);
    retired_seq_ = 0;
    if (was_retired) log_info("rtpd resumed session ownership (rollback)");
    return format_ok("retired=0");
  }
  // "detach" — drop the migration follower; idempotent so rollback paths
  // can always call it.
  if (migration_target_host_.empty()) return format_ok("migration=none");
  if (sender != nullptr)
    sender->remove_follower(migration_target_host_, migration_target_port_);
  migration_target_host_.clear();
  migration_target_port_ = 0;
  return format_ok("migration=detached");
}

std::string ServiceServer::render_mapset(const Request& request) {
  // Decode fully before touching any state: a malformed map must never be
  // partially applied.
  const PartitionMap map = decode_map_line(request.map_text);
  if (map.version <= stored_map_version_)
    throw ProtocolError(ProtocolErrorCode::State,
                        "MAPSET: version " + std::to_string(map.version) +
                            " is not newer than stored " +
                            std::to_string(stored_map_version_));
  stored_map_ = encode_map_line(map);  // canonical re-encode
  stored_map_version_ = map.version;
  return format_ok("map_version=" + std::to_string(map.version) +
                   " partitions=" + std::to_string(map.partitions.size()));
}

std::string ServiceServer::render_mapget() const {
  if (stored_map_.empty())
    throw ProtocolError(ProtocolErrorCode::State, "MAPGET: no partition map stored");
  return format_ok("map_version=" + std::to_string(stored_map_version_) +
                   " map=" + stored_map_);
}

std::string ServiceServer::stats_body(bool with_hist) const {
  const SessionCounters& c = session_.counters();
  const double uptime =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started_).count();
  const std::uint64_t requests = requests_.load(std::memory_order_relaxed);
  const std::uint64_t lookups = c.cache_hits + c.cache_misses;
  const double hit_rate =
      lookups > 0 ? static_cast<double>(c.cache_hits) / static_cast<double>(lookups) : 0.0;
  const double qps = uptime > 0.0 ? static_cast<double>(requests) / uptime : 0.0;
  std::string out =
      "requests=" + std::to_string(requests) +
      " errors=" +
      std::to_string(errors_.load(std::memory_order_relaxed) + transport_.overflows()) +
      " qps=" + format_number(qps) + " events=" + std::to_string(c.events) +
      " queries=" + std::to_string(c.queries) +
      " cache_hits=" + std::to_string(c.cache_hits) +
      " cache_misses=" + std::to_string(c.cache_misses) +
      " hit_rate=" + format_number(hit_rate) +
      " p50_us=" + format_number(estimate_latency_us_.p50()) +
      " p95_us=" + format_number(estimate_latency_us_.p95()) +
      " p99_us=" + format_number(estimate_latency_us_.p99()) +
      " max_us=" + format_number(estimate_latency_us_.max()) +
      " completed=" + std::to_string(session_.result().completed) +
      " mean_wait_s=" + format_number(session_.wait_stats().mean()) +
      " mean_abs_err_s=" + format_number(session_.error_stats().mean()) +
      " shed=" + std::to_string(shed_.load(std::memory_order_relaxed)) +
      " shed_connections=" + std::to_string(transport_.shed_connections());
  // Incremental-shadow repair accounting; absent on the legacy path, so a
  // legacy server's STATS line is byte-identical to before.
  if (const ShadowCounters* shadow = session_.shadow_counters(); shadow != nullptr) {
    out += " shadow_rebuilds=" + std::to_string(shadow->rebuilds) +
           " shadow_repairs=" + std::to_string(shadow->repairs) +
           " shadow_bookings=" + std::to_string(shadow->bookings) +
           " shadow_reused=" + std::to_string(shadow->reused) +
           " shadow_easy_replays=" + std::to_string(shadow->easy_replays);
  }
  if (options_.journal != nullptr) {
    const JournalWriter::Counters& j = options_.journal->counters();
    out += " journal_records=" + std::to_string(j.records) +
           " journal_bytes=" + std::to_string(j.bytes) +
           " journal_syncs=" + std::to_string(j.syncs) +
           " snapshots=" + std::to_string(j.snapshots);
  }
  // Replication keys appear only when a sender or applier is attached, so
  // an unreplicated server's STATS line is byte-identical to before.
  if (options_.replication != nullptr) {
    const auto followers = options_.replication->followers();
    std::size_t connected = 0;
    std::uint64_t max_lag = 0;
    for (const FollowerStatus& f : followers) {
      if (f.connected) ++connected;
      if (f.lag > max_lag) max_lag = f.lag;
    }
    out += " repl_role=primary repl_last_seq=" +
           std::to_string(options_.replication->last_committed_seq()) +
           " repl_followers=" + std::to_string(followers.size()) +
           " repl_connected=" + std::to_string(connected) +
           " repl_min_acked=" + std::to_string(options_.replication->min_acked_seq()) +
           " repl_max_lag=" + std::to_string(max_lag);
  }
  if (follower_ != nullptr) {
    const FollowerCounters f = follower_->counters();
    out += std::string(" repl_role=") + (read_only() ? "follower" : "primary") +
           " repl_applied_seq=" + std::to_string(follower_->applied_seq()) +
           " repl_frames=" + std::to_string(f.frames_applied) +
           " repl_heartbeats=" + std::to_string(f.heartbeats) +
           " repl_resyncs=" + std::to_string(f.resyncs) +
           " repl_rejected=" + std::to_string(f.rejected) +
           " repl_port=" + std::to_string(follower_->port());
  }
  if (retired())
    out += " retired=1 retired_map_version=" +
           std::to_string(retired_version_.load(std::memory_order_acquire)) +
           " retired_seq=" + std::to_string(retired_seq_);
  // Histogram tokens only on request (STATS hist), so the plain STATS line
  // stays byte-identical to before.  They carry the exact bucket counts a
  // router needs to merge worker quantiles losslessly.
  if (with_hist) {
    out += " request_hist=" + request_latency_us_.serialize() +
           " estimate_hist=" + estimate_latency_us_.serialize();
  }
  return out;
}

std::string ServiceServer::stats_line() {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_body();
}

std::string ServiceServer::shed_response(std::size_t line_number, const char* reason) {
  errors_.fetch_add(1, std::memory_order_relaxed);
  shed_.fetch_add(1, std::memory_order_relaxed);
  return format_error(line_number, ProtocolErrorCode::Busy, reason);
}

std::string ServiceServer::handle_line(std::string_view line, std::size_t line_number,
                                       bool* quit) {
  if (!is_request_line(line)) return {};
  const auto t0 = std::chrono::steady_clock::now();
  requests_.fetch_add(1, std::memory_order_relaxed);

  // Bound per-line memory before parsing (and before taking the lock).
  if (options_.max_line_bytes > 0 && line.size() > options_.max_line_bytes) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return format_error(line_number, ProtocolErrorCode::Parse,
                        "line too long (" + std::to_string(line.size()) + " > " +
                            std::to_string(options_.max_line_bytes) + " bytes)");
  }

  // Admission gate: at most max_pending requests in flight.  fetch_add
  // returns the prior count, so the gate is race-free without a lock.
  if (options_.max_pending > 0 &&
      pending_.fetch_add(1, std::memory_order_relaxed) >= options_.max_pending) {
    pending_.fetch_sub(1, std::memory_order_relaxed);
    return shed_response(line_number, "server overloaded (pending limit); retry");
  }
  if (options_.max_pending == 0) pending_.fetch_add(1, std::memory_order_relaxed);
  PendingGuard pending_guard(pending_);

  // The deadline is a polled try_lock, not std::timed_mutex::try_lock_for:
  // glibc serves the latter through pthread_mutex_clocklock, which
  // ThreadSanitizer does not intercept, so every successful timed acquire
  // would be reported as an unlock of an unlocked mutex.
  std::unique_lock<std::mutex> lock(mutex_, std::defer_lock);
  if (options_.request_deadline_ms > 0) {
    const auto deadline =
        t0 + std::chrono::milliseconds(options_.request_deadline_ms);
    while (!lock.try_lock()) {
      if (std::chrono::steady_clock::now() >= deadline)
        return shed_response(line_number, "request deadline exceeded; retry");
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  } else {
    lock.lock();
  }

  std::string response;
  bool is_estimate = false;
  try {
    const Request request = parse_request(line);
    is_estimate =
        request.kind == RequestKind::Estimate || request.kind == RequestKind::Interval;
    response = render(request, line, quit);
  } catch (const MovedError& e) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    response = format_moved(line_number, e.map_version(), e.what());
  } catch (const ProtocolError& e) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    response = format_error(line_number, e.code(), e.what());
  } catch (const Error& e) {
    // Session-level rejection: the event/query was invalid for the current
    // state.  The session guarantees it mutated nothing (and the journal
    // was rewound).
    errors_.fetch_add(1, std::memory_order_relaxed);
    response = format_error(line_number, ProtocolErrorCode::State, e.what());
  }
  const auto dt = std::chrono::duration<double, std::micro>(
      std::chrono::steady_clock::now() - t0);
  request_latency_us_.add(dt.count());
  if (is_estimate) estimate_latency_us_.add(dt.count());
  return response;
}

void ServiceServer::serve_stream(std::istream& in, std::ostream& out) {
  transport_.serve_stream(in, out);
}

std::uint16_t ServiceServer::listen_on(std::uint16_t port) {
  return transport_.listen_on(port);
}

void ServiceServer::serve() { transport_.serve(); }

void ServiceServer::shutdown() { transport_.shutdown(); }

ServerStats ServiceServer::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ServerStats out;
  out.requests = requests_.load(std::memory_order_relaxed);
  out.errors = errors_.load(std::memory_order_relaxed) + transport_.overflows();
  out.shed = shed_.load(std::memory_order_relaxed);
  out.shed_connections = transport_.shed_connections();
  out.uptime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started_).count();
  out.request_latency_us = request_latency_us_;
  out.estimate_latency_us = estimate_latency_us_;
  return out;
}

}  // namespace rtp
