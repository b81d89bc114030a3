// Request loop for the online wait-time service.
//
// One ServiceServer drives one OnlineSession from any number of clients:
//
//  * stream mode — serve_stream(in, out) reads protocol lines from an
//    istream and answers on an ostream: stdin/stdout pipes, files, tests.
//  * TCP mode — listen_on() binds 127.0.0.1, serve() accepts clients and
//    hands each connection to a worker thread; shutdown() (from any
//    thread) stops the accept loop and drains the workers.
//
// Both modes run on io::LineServer (service/io.hpp), the line loop rtprouter
// shares: TCP_NODELAY on every connection and one write per recv batch.
//
// The session itself is single-threaded by design, so a mutex serializes
// request handling; concurrency buys overlapped I/O, not parallel shadow
// simulations.  Every request is timed into log-bucketed histograms
// (src/stats/histogram.hpp) and the STATS verb reports throughput, cache
// hit rate, latency quantiles and the session's wait/error aggregates.
//
// Durability.  With a JournalWriter attached (ServerOptions::journal) the
// server is write-ahead: each mutating event line is appended to the
// journal *before* the session applies it, rewound if the session rejects
// it, and committed (fsync per policy) before the OK is sent — an
// acknowledged event survives kill -9.  Registered submit-time predictions
// are journaled the same way ('P' records), and a full session snapshot is
// appended every `snapshot_every` committed records so recovery replays
// snapshot + tail instead of the whole history.
//
// Overload protection.  The pending-request gate sheds work with
// "ERR code=busy" instead of queueing without bound: at most `max_pending`
// requests may be in flight (waiting on the session mutex) at once, a
// request that cannot take the mutex within `request_deadline_ms` is shed,
// oversized lines are rejected before parsing, TCP connections beyond
// `max_connections` are greeted with a busy error and closed, and slow
// clients are bounded by an SO_SNDTIMEO write timeout.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>

#include "service/io.hpp"
#include "service/protocol.hpp"
#include "service/session.hpp"
#include "stats/histogram.hpp"

namespace rtp {

class JournalWriter;
class ReplicationSender;
class FollowerApplier;
struct ReplicationSnapshot;

struct ServerOptions {
  /// Workers for TCP connections (0 = hardware concurrency).
  std::size_t threads = 2;
  /// Emit the greeting line when a client connects / a stream starts.
  bool greeting = true;

  // --- Durability (service/journal.hpp). --------------------------------

  /// Write-ahead journal; not owned, may be null (no durability).
  JournalWriter* journal = nullptr;
  /// Append a session snapshot record every this many committed journal
  /// records (0 disables periodic snapshots).
  std::size_t snapshot_every = 256;

  // --- Replication (service/replication.hpp). ---------------------------

  /// Primary-side journal streamer; not owned, may be null.  Requires
  /// `journal`: the server advances the sender after every commit, which is
  /// what releases records to followers (commit-before-replicate).
  ReplicationSender* replication = nullptr;

  // --- Migration (service/migrate.hpp). ---------------------------------

  /// Crash-durable retire marker ("<journal>.retired"): written before
  /// MIGRATE retire is acknowledged, deleted by MIGRATE resume, read back
  /// at construction so a kill -9'd retired source never resurrects as an
  /// owner.  Empty = in-memory retire only (tests).
  std::string retire_sidecar;

  // --- Overload protection. ---------------------------------------------

  /// Requests admitted concurrently (in service + waiting on the session
  /// mutex); beyond this the server answers "ERR code=busy".  0 = no gate.
  std::size_t max_pending = 64;
  /// Simultaneous TCP connections; excess connections receive a busy error
  /// and are closed before reading anything.  0 = no limit.
  std::size_t max_connections = 64;
  /// Shed a request that cannot acquire the session within this deadline
  /// (milliseconds).  0 = wait indefinitely.
  std::uint32_t request_deadline_ms = 0;
  /// SO_SNDTIMEO on client sockets: a client that stops draining its
  /// responses for this long is disconnected.  0 = kernel default.
  std::uint32_t write_timeout_ms = 5000;
  /// Reject request lines longer than this before parsing (bounds per-line
  /// memory; also caps the TCP reassembly buffer).  0 = no limit.
  std::size_t max_line_bytes = 64 * 1024;
};

/// Aggregate serving statistics (snapshot; see ServiceServer::stats()).
struct ServerStats {
  std::uint64_t requests = 0;   ///< request lines handled (blank/comment excluded)
  std::uint64_t errors = 0;     ///< requests answered with ERR
  std::uint64_t shed = 0;       ///< requests answered with ERR code=busy
  std::uint64_t shed_connections = 0;  ///< connections refused at the limit
  double uptime_seconds = 0.0;
  LatencyHistogram request_latency_us;
  LatencyHistogram estimate_latency_us;
};

/// Crash-durable retire marker (the "<journal>.retired" sidecar): one line,
/// "retired version=<map version> seq=<last committed seq>".  Written with
/// the tmp + fsync + rename discipline so it is atomically present or
/// absent.
struct RetireMarker {
  std::uint64_t map_version = 0;
  std::uint64_t seq = 0;
};

/// False when the sidecar is absent; throws rtp::Error when it exists but
/// is malformed (a torn marker must not be silently ignored).
bool read_retire_marker(const std::string& path, RetireMarker* out);
void write_retire_marker(const std::string& path, const RetireMarker& marker);
/// Delete the sidecar (MIGRATE resume); a missing file is not an error.
void remove_retire_marker(const std::string& path);

class ServiceServer {
 public:
  /// `session` is not owned and must outlive the server; the same goes for
  /// `options.journal` when set.
  explicit ServiceServer(OnlineSession& session, ServerOptions options = {});

  /// Greeting line sent to every client (no trailing newline).
  std::string greeting() const;

  /// Handle one request line; returns the response line (no trailing
  /// newline), or an empty string for blank/comment lines.  Sets `*quit`
  /// on QUIT.  Thread-safe.
  std::string handle_line(std::string_view line, std::size_t line_number, bool* quit);

  /// Stream mode: answer requests from `in` on `out` until QUIT or EOF.
  /// Each response is flushed as it is written, so a consumer (or a crash
  /// harness) sees every acknowledged request immediately.
  void serve_stream(std::istream& in, std::ostream& out);

  /// Bind a listening socket on 127.0.0.1:`port` (0 picks an ephemeral
  /// port) and return the bound port.  Throws rtp::Error on failure.
  std::uint16_t listen_on(std::uint16_t port);

  /// Accept loop; blocks until shutdown().  Requires listen_on() first.
  void serve();

  /// Stop the accept loop, close the listener, finish in-flight clients.
  void shutdown();

  /// Append a snapshot record to the attached journal now and fsync it
  /// (startup baseline, drain path).  No-op without a journal.
  void snapshot_now();

  // --- Replication (service/replication.hpp). ---------------------------

  /// Follower mode: with the gate up, mutating verbs answer
  /// "ERR code=readonly" while queries keep working against the mirrored
  /// session.  The FollowerApplier raises it on construction and clears it
  /// on promotion.
  void set_read_only(bool read_only) {
    read_only_.store(read_only, std::memory_order_release);
  }
  bool read_only() const { return read_only_.load(std::memory_order_acquire); }

  /// Attach the follower applier so STATS can report replication progress
  /// and the PROMOTE verb can reach it.  Call during single-threaded setup.
  void attach_follower(FollowerApplier* follower) { follower_ = follower; }

  /// Run `fn` with the session lock held — the replication follower's apply
  /// path, serialized against request handling exactly like a request.
  template <typename Fn>
  auto locked_apply(Fn&& fn) -> decltype(fn()) {
    std::lock_guard<std::mutex> lock(mutex_);
    return fn();
  }

  /// Serialize the session paired with the seq it covers, atomically with
  /// respect to commits — the sender's bootstrap snapshot source.
  ReplicationSnapshot replication_snapshot();

  // --- Migration (service/migrate.hpp). ---------------------------------

  /// A retired server answers every session-addressed verb (events and
  /// queries alike) with "ERR code=moved map_version=<N>"; STATS, HELLO,
  /// MAPGET/MAPSET, MIGRATE and QUIT keep working.  Raised by the MIGRATE
  /// retire verb (after the sidecar write when one is configured) and by
  /// construction when the sidecar already exists; cleared by MIGRATE
  /// resume.
  bool retired() const { return retired_.load(std::memory_order_acquire); }
  std::uint64_t retired_map_version() const {
    return retired_version_.load(std::memory_order_acquire);
  }

  /// The STATS response body (without "OK "), for rtpd's --stats-interval
  /// line.  Takes the session lock; does not count as a request.
  std::string stats_line();

  ServerStats stats() const;

 private:
  std::string render(const Request& request, std::string_view line, bool* quit);
  /// The MIGRATE verb family (attach/status/retire/resume/detach);
  /// requires mutex_ held (called from render).
  std::string render_migrate(const Request& request);
  /// MAPSET/MAPGET: the worker-side stored partition map (monotone
  /// version); requires mutex_ held.
  std::string render_mapset(const Request& request);
  std::string render_mapget() const;
  /// Write-ahead wrapper: journal `line`, run `apply`, rewind on rejection,
  /// commit on success (and snapshot on cadence).
  template <typename Fn>
  void journaled_event(std::string_view line, Fn&& apply);
  /// Journal a newly registered submit-time prediction for `id`, if any.
  void journal_prediction(JobId id, std::size_t registered_before);
  /// Snapshot on cadence; requires mutex_ held.  Failures are logged, not
  /// fatal (the journal still has the full event tail).
  void maybe_snapshot();
  /// Release the just-committed journal record to the replication sender
  /// (no-op without one); requires mutex_ held.
  void replicate_commit();
  /// The STATS body; requires mutex_ held.  `with_hist` appends the exact
  /// serialized latency histograms (the STATS hist form).
  std::string stats_body(bool with_hist = false) const;
  std::string shed_response(std::size_t line_number, const char* reason);

  OnlineSession& session_;
  ServerOptions options_;
  FollowerApplier* follower_ = nullptr;  // set during setup, before serving
  std::atomic<bool> read_only_{false};
  mutable std::mutex mutex_;  // session + histograms
  std::chrono::steady_clock::time_point started_;

  // Migration state.  retired_/retired_version_ are atomic so greeting and
  // stats paths can read them without the session lock; the rest is
  // guarded by mutex_.
  std::atomic<bool> retired_{false};
  std::atomic<std::uint64_t> retired_version_{0};
  std::uint64_t retired_seq_ = 0;          // guarded by mutex_
  std::string migration_target_host_;      // guarded by mutex_
  std::uint16_t migration_target_port_ = 0;  // guarded by mutex_
  std::string stored_map_;                 // encoded map text; guarded by mutex_
  std::uint64_t stored_map_version_ = 0;   // guarded by mutex_

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::size_t> pending_{0};
  std::size_t records_since_snapshot_ = 0;  // guarded by mutex_
  LatencyHistogram request_latency_us_;
  LatencyHistogram estimate_latency_us_;

  // Last member: destroyed first, so no connection worker outlives the
  // state its handler reads.
  io::LineServer transport_;
};

}  // namespace rtp
