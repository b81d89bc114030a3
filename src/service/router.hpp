// rtprouter: session-key routing tier for a sharded rtpd cluster.
//
// A Router is a thin RTP/1 proxy: it speaks the same line protocol as rtpd
// on its front side and forwards each request line, byte-for-byte, to one
// of N worker partitions on its back side.  The partition is chosen by the
// line's optional `key=` routing field (see service/protocol.hpp): an
// explicit assignment in the partition map wins, otherwise crc32(key) mod
// the partition count; a keyless line goes to the map's default partition.
// Because the workers answer deterministically and the router never
// rewrites a request, a keyed event stream pushed through the router
// produces ESTIMATE/INTERVAL responses byte-identical to running each
// partition's stream against its own monolithic rtpd — the property the
// router tests pin, including across a kill-worker → PROMOTE failover and
// across a live partition migration (service/migrate.hpp).
//
// Each partition lists its replica addresses in failover order (primary
// first, warm standbys after), and forwarding reuses the ServiceClient
// discipline per partition:
//
//  * "ERR code=busy" retries the *same* backend after a seeded-jitter
//    backoff — overload is back-pressure, not death — and surfaces
//    unchanged when attempts run out, so shedding propagates to clients;
//  * "ERR code=readonly" (a standby) and transport trouble advance to the
//    next replica, sticky, so the partition keeps answering while a dead
//    primary is promoted;
//  * a pooled connection that fails on first use is retired and the same
//    replica redialed once before the failure counts — a restarted worker
//    invalidates the whole pool, not the replica;
//  * "ERR code=moved" (a retired worker after a partition hand-off) makes
//    the router refetch the partition map from the worker (MAPGET), install
//    it if newer, and retry the line against the new owner — a stale-map
//    router self-heals without surfacing the error to its client;
//  * a partition with no reachable replica answers "ERR code=busy" locally
//    (deterministic message) — the router never buffers requests.
//
// Live map swaps.  The routing state (map + per-partition replica cursors
// and load counters) lives in an immutable RoutingTable behind a
// shared_ptr: each request pins a snapshot, and MAPSET (or the moved
// self-heal) installs a strictly-newer map by swapping the pointer —
// in-flight requests finish against the table they started with.  During a
// migration's drain window the coordinator pauses the moving partition:
// new requests for it queue on a gate (bounded by pause_wait_ms) instead
// of being rejected, and resume against the post-cutover table.
//
// Responses pass through unmodified except the ERR `line=` token, which is
// rewritten to the client's own line number (a pooled backend connection
// has its own count).  HELLO and QUIT are answered locally — QUIT is
// connection-scoped and forwarding it would tear down a pooled backend
// connection.  MAPGET/MAPSET are answered locally against the router's own
// map, and MIGRATE/REBALANCE are dispatched to the attached
// MigrationCoordinator.  A keyless STATS fans out to every partition and
// merges the answers exactly: counters are summed and latency quantiles
// come from LatencyHistogram::merge over the workers' serialized
// histograms (the `STATS hist` form), never from averaging quantiles.
// When one or more partitions are unreachable the merged line degrades
// instead of failing: it carries `router_stats_partial=1` plus a
// `p<i>_unreachable=1` marker per dead partition, and sums what answered.
//
// Backend connections are pooled per address with per-connection receive
// buffers, so concurrent client connections forward in parallel without
// interleaving response bytes.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <istream>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "core/rng.hpp"
#include "service/io.hpp"
#include "stats/histogram.hpp"

namespace rtp {

class MigrationCoordinator;

/// Versioned key → partition map.  `partitions[i]` lists partition i's
/// replica addresses in failover order (primary first); `assignments` pins
/// individual keys to partitions, overriding the hash.  Deterministic:
/// load(dump()) round-trips and equal maps dump equal bytes.
struct PartitionMap {
  std::uint64_t version = 1;
  std::size_t default_partition = 0;
  std::vector<std::vector<std::string>> partitions;
  std::map<std::string, std::size_t, std::less<>> assignments;

  /// Partition for a routing key; the empty key is the keyless case and
  /// routes to default_partition.
  std::size_t route(std::string_view key) const;

  /// Throws rtp::Error unless the map is well-formed: at least one
  /// partition, every partition non-empty with parseable host:port
  /// addresses, default and assignment indices in range.  Addresses and
  /// assignment keys must not contain ',' or ';' (reserved by the
  /// single-line wire encoding, see encode_map_line).
  void validate() const;

  /// Deterministic text form:
  ///
  ///   RTPMAP1 version=<v> partitions=<n> default=<d>
  ///   partition <i> <addr> [<addr> ...]
  ///   assign <key> <partition>
  ///
  /// Partition lines in index order, assign lines in key order.
  std::string dump() const;

  /// Inverse of dump (blank lines and '#' comments allowed); validates.
  /// Throws rtp::Error on malformed input; every rejection names the
  /// 1-based line it occurred on ("partition map line <n>: ...") and a
  /// rejected map is never partially applied — load returns a complete map
  /// or throws.
  static PartitionMap load(std::string_view text);
};

/// Single-token wire form of a map, for the MAPSET/MAPGET verbs: dump()
/// with ' ' → ',' and '\n' → ';'.  decode_map_line inverts and validates
/// (so a malformed token is refused with a line number, like load).
std::string encode_map_line(const PartitionMap& map);
PartitionMap decode_map_line(std::string_view text);

struct RouterOptions {
  std::uint32_t connect_timeout_ms = 2000;
  /// SO_RCVTIMEO on backend connections: a worker slower than this is a
  /// transport failure (and the partition fails over).
  std::uint32_t read_timeout_ms = 5000;
  /// Total forwarding tries per request across retries and failover.
  std::uint32_t max_attempts = 4;
  std::uint32_t backoff_min_ms = 50;
  std::uint32_t backoff_max_ms = 2000;
  /// Seed for the backoff jitter stream.
  std::uint64_t jitter_seed = 0x52545052u;  // "RTPR"
  /// Reject client and backend lines longer than this.
  std::size_t max_line_bytes = 1 << 20;
  /// Client-facing connection handler threads.
  std::size_t threads = 4;
  /// Client connections beyond this are refused with code=busy (0 = no
  /// limit), mirroring rtpd's connection admission.
  std::uint32_t write_timeout_ms = 10000;
  std::size_t max_connections = 64;
  bool greeting = true;
  /// Longest a request queues on a paused partition (migration drain
  /// window) before proceeding anyway; the coordinator's drain timeout is
  /// shorter, so hitting this bound means the coordinator died mid-cutover
  /// and the old owner is still authoritative.
  std::uint32_t pause_wait_ms = 10000;
};

struct RouterStats {
  std::uint64_t requests = 0;   ///< client request lines handled
  std::uint64_t errors = 0;     ///< answered with ERR (local or forwarded)
  std::uint64_t forwarded = 0;  ///< lines sent to a backend (incl. retries)
  std::uint64_t retries = 0;    ///< same-backend retries after code=busy
  std::uint64_t failovers = 0;  ///< replica advances (readonly/transport)
  std::uint64_t shed_connections = 0;  ///< client connections refused
  std::uint64_t moved_redirects = 0;   ///< code=moved self-heal retries
  std::uint64_t stale_retires = 0;     ///< pooled conns retired + redialed
  std::uint64_t paused_waits = 0;      ///< requests that queued on the pause gate
};

class Router {
 public:
  /// Validates the map (throws rtp::Error when malformed).
  Router(PartitionMap map, RouterOptions options = {});
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Route one client line; returns the response line, or "" for blank and
  /// comment lines.  Thread-safe.
  std::string handle_line(std::string_view line, std::size_t line_number, bool* quit);

  /// Drive the router from a line stream (stdin mode).
  void serve_stream(std::istream& in, std::ostream& out);

  /// Bind 127.0.0.1:port (0 = ephemeral); returns the bound port.
  std::uint16_t listen_on(std::uint16_t port);
  /// Accept and serve until shutdown().
  void serve();
  /// Stop the accept loop (callable from any thread).
  void shutdown();

  /// Snapshot of the current partition map (copies; the live table may be
  /// swapped at any time by MAPSET or the moved self-heal).
  PartitionMap map() const;
  std::uint64_t map_version() const;

  /// Install a strictly-newer map: swaps the routing table (per-partition
  /// cursors and load counters reset), keeps existing backend pools for
  /// addresses that persist.  Returns false (no change) when
  /// `map.version <= map_version()`.  Throws rtp::Error when malformed.
  bool install_map(PartitionMap map);

  // --- Migration hooks (service/migrate.hpp). ---------------------------

  /// Dispatch target for the MIGRATE/REBALANCE verbs; not owned.  Call
  /// during single-threaded setup.  Without one the verbs answer
  /// "ERR code=state".
  void attach_coordinator(MigrationCoordinator* coordinator) {
    coordinator_ = coordinator;
  }

  /// Drain-window gate: while partition `p` is paused, requests routed to
  /// it queue (up to pause_wait_ms) instead of forwarding.  One partition
  /// at a time; unpause wakes every waiter.
  void pause_partition(std::size_t partition);
  void unpause_partition();

  /// The partition with the highest routed-line count since the last map
  /// install (ties → lowest index), or the partition count when no
  /// partition has routed anything — the rebalance policy's input.
  std::size_t hottest_partition() const;
  /// Routed-line count for one partition since the last map install.
  std::uint64_t partition_load(std::size_t partition) const;

  RouterStats stats() const;

 private:
  struct PooledConn {
    int fd = -1;
    std::string buffer;  ///< unread bytes from this backend connection
  };

  /// One worker address: its parsed endpoint plus a pool of idle
  /// connections.  The same address shared by several partitions (or by
  /// consecutive maps) shares one pool.  Entries are append-only and the
  /// deque gives them stable addresses, so a Backend& stays valid across
  /// map swaps.
  struct Backend {
    std::string address;
    std::string host;
    std::uint16_t port = 0;
    std::mutex mutex;
    std::vector<PooledConn> idle;
  };

  struct Partition {
    std::vector<std::size_t> backends;  ///< indices into backends_
    // mutable: requests pin a shared_ptr<const RoutingTable> snapshot, but
    // the sticky cursor and load counter are live state, not map data.
    mutable std::atomic<std::size_t> current{0};  ///< sticky replica to try next
    mutable std::atomic<std::uint64_t> load{0};   ///< lines routed (rebalance input)
  };

  /// One immutable routing generation: the map plus its partition state.
  /// Swapped wholesale on install_map; requests pin a snapshot so a swap
  /// never changes a request's routing mid-flight.
  struct RoutingTable {
    PartitionMap map;
    std::deque<Partition> partitions;
  };

  std::shared_ptr<const RoutingTable> table() const;
  std::shared_ptr<RoutingTable> make_table(PartitionMap map);
  /// Index of the (possibly new) pool entry for `address`.
  std::size_t ensure_backend(const std::string& address);
  Backend& backend_at(std::size_t index);

  /// Resolve the key against the current table and forward, retrying once
  /// through the moved self-heal (refetch map, reroute) on code=moved.
  std::string route_and_forward(std::string_view key, std::string_view line,
                                std::size_t line_number);
  /// Forward one line to a partition per the failover discipline; returns
  /// the client-facing response line.  code=moved responses are returned
  /// without counting an error — route_and_forward owns that accounting.
  std::string forward(const RoutingTable& table, std::size_t partition_index,
                      std::string_view line, std::size_t line_number);
  /// MAPGET against `partition`'s replicas; installs the result if newer.
  /// True when a newer map was installed.
  bool refresh_map(const RoutingTable& table, std::size_t partition_index,
                   std::size_t line_number);
  /// `*pooled` reports whether the connection came from the idle pool
  /// (stale-retire candidate) rather than a fresh dial.
  bool checkout(Backend& backend, PooledConn* conn, bool* pooled,
                std::string* error);
  void checkin(Backend& backend, PooledConn conn);
  void backoff(std::uint32_t attempt);
  /// Block while `partition` is paused (bounded by pause_wait_ms).
  void wait_if_paused(std::size_t partition);

  /// The keyless STATS fan-out: one `STATS hist` per partition, exact
  /// merge, degraded (partial=1 + unreachable markers) when a partition is
  /// down.
  std::string stats_response(const RoutingTable& table, bool with_hist,
                             std::size_t line_number);

  std::string greeting() const;
  std::string local_error(std::size_t line_number, std::string_view line);

  RouterOptions options_;
  mutable std::mutex table_mutex_;  ///< guards table_ (the pointer, not the pointee)
  std::shared_ptr<const RoutingTable> table_;
  mutable std::mutex backends_mutex_;  ///< guards backends_ growth/lookup
  std::deque<Backend> backends_;       ///< append-only; entries never move
  std::map<std::string, std::size_t, std::less<>> backend_index_;  ///< guarded by backends_mutex_
  MigrationCoordinator* coordinator_ = nullptr;  // set during setup

  // Drain-window gate.
  std::mutex gate_mutex_;
  std::condition_variable gate_cv_;
  bool pause_active_ = false;            ///< guarded by gate_mutex_
  std::size_t paused_partition_ = 0;     ///< guarded by gate_mutex_

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> forwarded_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> failovers_{0};
  std::atomic<std::uint64_t> moved_redirects_{0};
  std::atomic<std::uint64_t> stale_retires_{0};
  std::atomic<std::uint64_t> paused_waits_{0};

  std::mutex rng_mutex_;
  Rng rng_;

  // Last member: destroyed first, so no connection worker outlives the
  // state its handler reads.
  io::LineServer transport_;
};

}  // namespace rtp
