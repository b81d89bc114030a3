#include "service/router.hpp"

#include <unistd.h>

#include <chrono>
#include <optional>
#include <thread>
#include <utility>

#include "core/error.hpp"
#include "core/log.hpp"
#include "core/strings.hpp"
#include "service/client.hpp"
#include "service/io.hpp"
#include "service/journal.hpp"  // crc32
#include "service/migrate.hpp"
#include "service/protocol.hpp"

namespace rtp {
namespace {

/// Rewrite a forwarded ERR's line= token to the client's own line number:
/// a pooled backend connection counts its own lines, so the worker's value
/// is meaningless to the client (and would break bit-identity with a
/// monolithic server).  OK lines pass through untouched.
std::string rewrite_err_line(std::string response, std::size_t line_number) {
  constexpr std::string_view kPrefix = "ERR line=";
  if (!starts_with(response, kPrefix)) return response;
  const std::size_t rest = response.find(' ', kPrefix.size());
  return std::string(kPrefix) + std::to_string(line_number) +
         (rest == std::string::npos ? "" : response.substr(rest));
}

/// Strip a required `<name>=` prefix off a partition-map header token.
std::string_view map_field(std::string_view token, std::string_view prefix) {
  RTP_CHECK(starts_with(token, prefix),
            "partition map header expected " + std::string(prefix) + "..., got '" +
                std::string(token) + "'");
  return token.substr(prefix.size());
}

std::size_t map_index(std::string_view token, std::string_view context,
                      std::size_t limit) {
  const long long value = parse_int(token, context);
  RTP_CHECK(value >= 0 && static_cast<unsigned long long>(value) < limit,
            std::string(context) + " out of range: " + std::string(token));
  return static_cast<std::size_t>(value);
}

/// Characters the single-line wire form (encode_map_line) reserves.
constexpr std::string_view kMapReserved = ",;";

void check_map_address(const std::string& address, std::size_t partition) {
  std::string host, error;
  std::uint16_t port = 0;
  RTP_CHECK(io::split_hostport(address, &host, &port, &error),
            "partition " + std::to_string(partition) + ": " + error);
  RTP_CHECK(address.find_first_of(kMapReserved) == std::string::npos,
            "partition " + std::to_string(partition) + " address '" + address +
                "' contains a reserved character (one of \",;\")");
}

void check_map_key(const std::string& key) {
  RTP_CHECK(!key.empty() && key.find_first_of(" \t\n\r") == std::string::npos,
            "assignment key must be a non-empty token, got '" + key + "'");
  RTP_CHECK(key.find_first_of(kMapReserved) == std::string::npos,
            "assignment key '" + key +
                "' contains a reserved character (one of \",;\")");
}

}  // namespace

std::size_t PartitionMap::route(std::string_view key) const {
  if (key.empty()) return default_partition;
  if (const auto it = assignments.find(key); it != assignments.end()) return it->second;
  return crc32(key) % partitions.size();
}

void PartitionMap::validate() const {
  RTP_CHECK(!partitions.empty(), "partition map needs at least one partition");
  RTP_CHECK(default_partition < partitions.size(),
            "default partition " + std::to_string(default_partition) +
                " out of range (have " + std::to_string(partitions.size()) + ")");
  for (std::size_t i = 0; i < partitions.size(); ++i) {
    RTP_CHECK(!partitions[i].empty(),
              "partition " + std::to_string(i) + " has no replica addresses");
    for (const std::string& address : partitions[i]) check_map_address(address, i);
  }
  for (const auto& [key, index] : assignments) {
    check_map_key(key);
    RTP_CHECK(index < partitions.size(),
              "assignment '" + key + "' targets partition " + std::to_string(index) +
                  " of " + std::to_string(partitions.size()));
  }
}

std::string PartitionMap::dump() const {
  std::string out = "RTPMAP1 version=" + std::to_string(version) +
                    " partitions=" + std::to_string(partitions.size()) +
                    " default=" + std::to_string(default_partition) + "\n";
  for (std::size_t i = 0; i < partitions.size(); ++i) {
    out += "partition " + std::to_string(i);
    for (const std::string& address : partitions[i]) out += " " + address;
    out += "\n";
  }
  for (const auto& [key, index] : assignments)
    out += "assign " + key + " " + std::to_string(index) + "\n";
  return out;
}

PartitionMap PartitionMap::load(std::string_view text) {
  PartitionMap map;
  bool have_header = false;
  std::size_t declared = 0;
  std::size_t line_no = 0;
  // Every rejection names the 1-based line it happened on; the trailing
  // whole-map checks (truncation, validate) blame the last line seen.
  const auto reject = [&line_no](const std::string& what) {
    fail("partition map line " + std::to_string(line_no) + ": " + what);
  };
  for (const std::string_view raw : split(text, '\n')) {
    ++line_no;
    const std::string_view line = trim(raw);
    if (line.empty() || line.front() == '#') continue;
    try {
      const auto tokens = split_whitespace(line);
      if (!have_header) {
        RTP_CHECK(tokens[0] == "RTPMAP1" && tokens.size() == 4,
                  "partition map must start with 'RTPMAP1 version=<v> partitions=<n> "
                  "default=<d>', got '" + std::string(line) + "'");
        const long long version =
            parse_int(map_field(tokens[1], "version="), "map version");
        RTP_CHECK(version >= 0, "map version must be >= 0");
        map.version = static_cast<std::uint64_t>(version);
        const long long count =
            parse_int(map_field(tokens[2], "partitions="), "map partition count");
        RTP_CHECK(count >= 1 && count <= 4096, "map partition count out of range");
        declared = static_cast<std::size_t>(count);
        map.default_partition = map_index(map_field(tokens[3], "default="),
                                          "map default partition", declared);
        have_header = true;
        continue;
      }
      if (tokens[0] == "partition") {
        RTP_CHECK(tokens.size() >= 3, "expected: partition <index> <addr> [<addr> ...]");
        const std::size_t index = map_index(tokens[1], "partition index", declared);
        RTP_CHECK(index == map.partitions.size(),
                  "partition lines must be in index order; expected " +
                      std::to_string(map.partitions.size()) + ", got " +
                      std::to_string(index));
        std::vector<std::string> replicas;
        for (std::size_t i = 2; i < tokens.size(); ++i) {
          replicas.emplace_back(tokens[i]);
          check_map_address(replicas.back(), index);
        }
        map.partitions.push_back(std::move(replicas));
        continue;
      }
      if (tokens[0] == "assign") {
        RTP_CHECK(tokens.size() == 3, "expected: assign <key> <partition>");
        const std::size_t index = map_index(tokens[2], "assignment partition", declared);
        std::string key(tokens[1]);
        check_map_key(key);
        const bool inserted = map.assignments.emplace(std::move(key), index).second;
        RTP_CHECK(inserted,
                  "duplicate assignment for key '" + std::string(tokens[1]) + "'");
        continue;
      }
      fail("unknown partition-map line '" + std::string(line) + "'");
    } catch (const Error& e) {
      reject(e.what());
    }
  }
  try {
    RTP_CHECK(have_header, "partition map is empty");
    RTP_CHECK(map.partitions.size() == declared,
              "header declares " + std::to_string(declared) + " partitions, found " +
                  std::to_string(map.partitions.size()));
    map.validate();
  } catch (const Error& e) {
    reject(e.what());
  }
  return map;
}

std::string encode_map_line(const PartitionMap& map) {
  std::string text = map.dump();
  if (!text.empty() && text.back() == '\n') text.pop_back();
  for (char& c : text) {
    if (c == ' ') c = ',';
    else if (c == '\n') c = ';';
  }
  return text;
}

PartitionMap decode_map_line(std::string_view text) {
  std::string multi(text);
  for (char& c : multi) {
    if (c == ',') c = ' ';
    else if (c == ';') c = '\n';
  }
  return PartitionMap::load(multi);
}

Router::Router(PartitionMap map, RouterOptions options)
    : options_(options),
      rng_(options.jitter_seed),
      transport_(
          io::LineServerOptions{"rtprouter", "router", options.threads,
                                options.max_connections, options.write_timeout_ms,
                                options.max_line_bytes},
          [this](std::string_view line, std::size_t line_number, bool* quit) {
            return handle_line(line, line_number, quit);
          },
          options.greeting ? io::LineServer::Greeter([this] { return greeting(); })
                           : io::LineServer::Greeter()) {
  table_ = make_table(std::move(map));
}

Router::~Router() {
  shutdown();
  std::lock_guard<std::mutex> pools(backends_mutex_);
  for (Backend& backend : backends_) {
    std::lock_guard<std::mutex> lock(backend.mutex);
    for (PooledConn& conn : backend.idle) ::close(conn.fd);
    backend.idle.clear();
  }
}

std::shared_ptr<const Router::RoutingTable> Router::table() const {
  std::lock_guard<std::mutex> lock(table_mutex_);
  return table_;
}

std::size_t Router::ensure_backend(const std::string& address) {
  std::lock_guard<std::mutex> lock(backends_mutex_);
  if (const auto it = backend_index_.find(address); it != backend_index_.end())
    return it->second;
  backends_.emplace_back();
  Backend& backend = backends_.back();
  backend.address = address;
  std::string error;
  RTP_CHECK(io::split_hostport(address, &backend.host, &backend.port, &error),
            "router backend: " + error);
  backend_index_.emplace(address, backends_.size() - 1);
  return backends_.size() - 1;
}

Router::Backend& Router::backend_at(std::size_t index) {
  // Entries are append-only and deque references are stable, so the lock
  // only covers the container lookup, not the returned Backend's lifetime.
  std::lock_guard<std::mutex> lock(backends_mutex_);
  return backends_[index];
}

std::shared_ptr<Router::RoutingTable> Router::make_table(PartitionMap map) {
  map.validate();
  auto table = std::make_shared<RoutingTable>();
  for (const std::vector<std::string>& replicas : map.partitions) {
    table->partitions.emplace_back();
    Partition& partition = table->partitions.back();
    for (const std::string& address : replicas)
      partition.backends.push_back(ensure_backend(address));
  }
  table->map = std::move(map);
  return table;
}

PartitionMap Router::map() const { return table()->map; }

std::uint64_t Router::map_version() const { return table()->map.version; }

bool Router::install_map(PartitionMap map) {
  std::shared_ptr<RoutingTable> fresh = make_table(std::move(map));
  std::lock_guard<std::mutex> lock(table_mutex_);
  if (fresh->map.version <= table_->map.version) return false;
  table_ = std::move(fresh);
  return true;
}

void Router::pause_partition(std::size_t partition) {
  std::lock_guard<std::mutex> lock(gate_mutex_);
  RTP_CHECK(!pause_active_, "a partition is already paused");
  pause_active_ = true;
  paused_partition_ = partition;
}

void Router::unpause_partition() {
  {
    std::lock_guard<std::mutex> lock(gate_mutex_);
    pause_active_ = false;
  }
  gate_cv_.notify_all();
}

void Router::wait_if_paused(std::size_t partition) {
  std::unique_lock<std::mutex> lock(gate_mutex_);
  if (!pause_active_ || paused_partition_ != partition) return;
  paused_waits_.fetch_add(1, std::memory_order_relaxed);
  // Timing out means the coordinator died mid-drain; the old owner is
  // still authoritative, so proceeding is safe (at worst a moved reply
  // triggers the self-heal path).
  gate_cv_.wait_for(lock, std::chrono::milliseconds(options_.pause_wait_ms),
                    [&] { return !pause_active_ || paused_partition_ != partition; });
}

std::size_t Router::hottest_partition() const {
  const std::shared_ptr<const RoutingTable> table = this->table();
  std::size_t hottest = table->partitions.size();
  std::uint64_t best = 0;
  for (std::size_t p = 0; p < table->partitions.size(); ++p) {
    const std::uint64_t load =
        table->partitions[p].load.load(std::memory_order_relaxed);
    if (load > best) {  // strict: ties keep the lowest index
      best = load;
      hottest = p;
    }
  }
  return hottest;
}

std::uint64_t Router::partition_load(std::size_t partition) const {
  const std::shared_ptr<const RoutingTable> table = this->table();
  RTP_CHECK(partition < table->partitions.size(),
            "partition " + std::to_string(partition) + " out of range");
  return table->partitions[partition].load.load(std::memory_order_relaxed);
}

std::string Router::greeting() const {
  const std::shared_ptr<const RoutingTable> table = this->table();
  return std::string(kProtocolVersion) +
         " ready router partitions=" + std::to_string(table->partitions.size()) +
         " map_version=" + std::to_string(table->map.version);
}

bool Router::checkout(Backend& backend, PooledConn* conn, bool* pooled,
                      std::string* error) {
  {
    std::lock_guard<std::mutex> lock(backend.mutex);
    if (!backend.idle.empty()) {
      *conn = std::move(backend.idle.back());
      backend.idle.pop_back();
      *pooled = true;
      return true;
    }
  }
  *pooled = false;
  const int fd = io::dial_tcp_rcvtimeo(backend.host, backend.port,
                                       options_.connect_timeout_ms,
                                       options_.read_timeout_ms, error);
  if (fd < 0) return false;
  conn->fd = fd;
  conn->buffer.clear();
  return true;
}

void Router::checkin(Backend& backend, PooledConn conn) {
  std::lock_guard<std::mutex> lock(backend.mutex);
  backend.idle.push_back(std::move(conn));
}

void Router::backoff(std::uint32_t attempt) {
  std::unique_lock<std::mutex> lock(rng_mutex_);
  const std::chrono::milliseconds delay =
      backoff_delay(attempt, options_.backoff_min_ms, options_.backoff_max_ms, rng_);
  lock.unlock();
  std::this_thread::sleep_for(delay);
}

std::string Router::forward(const RoutingTable& table, std::size_t partition_index,
                            std::string_view line, std::size_t line_number) {
  const Partition& partition = table.partitions[partition_index];
  std::string last_reply;
  std::string last_error = "no attempts made";
  for (std::uint32_t attempt = 0; attempt < options_.max_attempts; ++attempt) {
    if (attempt > 0) backoff(attempt - 1);
    const std::size_t replica = partition.current.load(std::memory_order_relaxed) %
                                partition.backends.size();
    Backend& backend = backend_at(partition.backends[replica]);
    PooledConn conn;
    bool pooled = false;
    std::string error;
    if (!checkout(backend, &conn, &pooled, &error)) {
      last_error = backend.address + ": " + error;
      failovers_.fetch_add(1, std::memory_order_relaxed);
      partition.current.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    forwarded_.fetch_add(1, std::memory_order_relaxed);
    std::string response;
    bool ok = exchange_line(conn.fd, &conn.buffer, line, options_.max_line_bytes,
                            backend.address, &response, &error);
    if (!ok && pooled) {
      // A pooled connection failing on first use usually means the worker
      // restarted since it was pooled (the FIN raced the checkout): retire
      // it and redial the same replica once before counting a transport
      // failure against the partition.
      ::close(conn.fd);
      conn = PooledConn{};
      stale_retires_.fetch_add(1, std::memory_order_relaxed);
      std::string dial_error;
      const int fd = io::dial_tcp_rcvtimeo(backend.host, backend.port,
                                           options_.connect_timeout_ms,
                                           options_.read_timeout_ms, &dial_error);
      if (fd >= 0) {
        conn.fd = fd;
        forwarded_.fetch_add(1, std::memory_order_relaxed);
        ok = exchange_line(conn.fd, &conn.buffer, line, options_.max_line_bytes,
                           backend.address, &response, &error);
      } else {
        error = backend.address + " redial: " + dial_error;
      }
    }
    if (!ok) {
      if (conn.fd >= 0) ::close(conn.fd);
      last_error = error;
      failovers_.fetch_add(1, std::memory_order_relaxed);
      partition.current.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    const std::string code =
        starts_with(response, "ERR") ? reply_error_code(response) : std::string();
    if (code == "busy") {
      // Overloaded, not gone: the connection is healthy, back off and retry
      // the same replica.
      checkin(backend, std::move(conn));
      last_reply = std::move(response);
      retries_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (code == "readonly") {
      // A standby: the primary is another replica of this partition.
      checkin(backend, std::move(conn));
      last_reply = std::move(response);
      failovers_.fetch_add(1, std::memory_order_relaxed);
      partition.current.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    checkin(backend, std::move(conn));
    if (code == "moved")
      // The worker retired this key after a hand-off; route_and_forward
      // self-heals (and owns the error accounting if it can't).
      return rewrite_err_line(std::move(response), line_number);
    if (starts_with(response, "ERR")) errors_.fetch_add(1, std::memory_order_relaxed);
    return rewrite_err_line(std::move(response), line_number);
  }
  errors_.fetch_add(1, std::memory_order_relaxed);
  if (!last_reply.empty()) return rewrite_err_line(std::move(last_reply), line_number);
  log_warn("rtprouter partition ", partition_index, " unreachable: ", last_error);
  // Deterministic message (the transport detail above varies per run).
  return format_error(line_number, ProtocolErrorCode::Busy,
                      "partition " + std::to_string(partition_index) +
                          " unreachable; retry");
}

bool Router::refresh_map(const RoutingTable& table, std::size_t partition_index,
                         std::size_t line_number) {
  const std::string reply = forward(table, partition_index, "MAPGET", line_number);
  if (!starts_with(reply, "OK ")) return false;
  std::string_view map_text;
  for (const std::string_view token :
       split_whitespace(std::string_view(reply).substr(3)))
    if (starts_with(token, "map=")) map_text = token.substr(4);
  if (map_text.empty()) return false;
  try {
    return install_map(decode_map_line(map_text));
  } catch (const Error& e) {
    log_warn("rtprouter: refetched partition map rejected: ", e.what());
    return false;
  }
}

std::string Router::route_and_forward(std::string_view key, std::string_view line,
                                      std::size_t line_number) {
  std::string response;
  for (int hop = 0; hop < 2; ++hop) {
    std::shared_ptr<const RoutingTable> table = this->table();
    std::size_t partition = table->map.route(key);
    wait_if_paused(partition);
    // The gate releases when a cutover completes, so re-pin the table: the
    // first post-drain request already routes by the new map.
    if (std::shared_ptr<const RoutingTable> fresh = this->table(); fresh != table) {
      table = std::move(fresh);
      partition = table->map.route(key);
    }
    table->partitions[partition].load.fetch_add(1, std::memory_order_relaxed);
    response = forward(*table, partition, line, line_number);
    if (!starts_with(response, "ERR") || reply_error_code(response) != "moved")
      return response;
    if (hop == 0) {
      moved_redirects_.fetch_add(1, std::memory_order_relaxed);
      if (refresh_map(*table, partition, line_number)) continue;
    }
    break;
  }
  // Self-heal failed (no newer map to fetch, or the new owner also answered
  // moved): surface the moved error.
  errors_.fetch_add(1, std::memory_order_relaxed);
  return response;
}

std::string Router::stats_response(const RoutingTable& table, bool with_hist,
                                   std::size_t line_number) {
  // Worker counters the merged view sums; fixed order, rendered below.
  static constexpr std::string_view kSummed[] = {
      "requests",  "errors",       "events",    "queries", "cache_hits",
      "cache_misses", "completed", "shed",      "shed_connections"};
  constexpr std::size_t kKeys = sizeof(kSummed) / sizeof(kSummed[0]);
  std::uint64_t sums[kKeys] = {};
  std::size_t up = 0;
  std::vector<bool> reachable(table.partitions.size(), false);
  std::optional<LatencyHistogram> request_hist;
  std::optional<LatencyHistogram> estimate_hist;
  const auto merge_into = [](std::optional<LatencyHistogram>* into,
                             std::string_view text) {
    LatencyHistogram h = LatencyHistogram::deserialize(text);
    if (into->has_value()) (*into)->merge(h);
    else *into = std::move(h);
  };
  for (std::size_t p = 0; p < table.partitions.size(); ++p) {
    const std::string reply = forward(table, p, "STATS hist", line_number);
    if (!starts_with(reply, "OK ")) continue;  // unreachable partition
    reachable[p] = true;
    ++up;
    for (const std::string_view token :
         split_whitespace(std::string_view(reply).substr(3))) {
      const std::size_t eq = token.find('=');
      if (eq == std::string_view::npos) continue;
      const std::string_view key = token.substr(0, eq);
      const std::string_view value = token.substr(eq + 1);
      for (std::size_t k = 0; k < kKeys; ++k) {
        if (key != kSummed[k]) continue;
        const long long v = parse_int(value, "worker STATS counter");
        if (v > 0) sums[k] += static_cast<std::uint64_t>(v);
        break;
      }
      if (key == "request_hist") merge_into(&request_hist, value);
      if (key == "estimate_hist") merge_into(&estimate_hist, value);
    }
  }
  const std::uint64_t lookups = sums[4] + sums[5];  // cache_hits + cache_misses
  const double hit_rate =
      lookups > 0 ? static_cast<double>(sums[4]) / static_cast<double>(lookups) : 0.0;
  const LatencyHistogram estimate_merged =
      estimate_hist.has_value() ? *estimate_hist : LatencyHistogram();
  std::string out =
      "partitions=" + std::to_string(table.partitions.size()) +
      " up=" + std::to_string(up) +
      " map_version=" + std::to_string(table.map.version) +
      " default=" + std::to_string(table.map.default_partition) +
      " router_requests=" + std::to_string(requests_.load(std::memory_order_relaxed)) +
      " router_errors=" +
      std::to_string(errors_.load(std::memory_order_relaxed) + transport_.overflows()) +
      " router_forwarded=" + std::to_string(forwarded_.load(std::memory_order_relaxed)) +
      " router_retries=" + std::to_string(retries_.load(std::memory_order_relaxed)) +
      " router_failovers=" + std::to_string(failovers_.load(std::memory_order_relaxed)) +
      " router_shed_connections=" + std::to_string(transport_.shed_connections()) +
      " router_moved_redirects=" +
      std::to_string(moved_redirects_.load(std::memory_order_relaxed)) +
      " router_stale_retires=" +
      std::to_string(stale_retires_.load(std::memory_order_relaxed)) +
      " router_paused_waits=" +
      std::to_string(paused_waits_.load(std::memory_order_relaxed));
  // Degraded, not dead: a partition that stayed dark is marked and the
  // merged counters cover only what answered.
  if (up < table.partitions.size()) out += " router_stats_partial=1";
  for (std::size_t p = 0; p < table.partitions.size(); ++p) {
    out += " p" + std::to_string(p) + "_load=" +
           std::to_string(table.partitions[p].load.load(std::memory_order_relaxed));
    if (!reachable[p]) out += " p" + std::to_string(p) + "_unreachable=1";
  }
  for (std::size_t k = 0; k < kKeys; ++k)
    out += " " + std::string(kSummed[k]) + "=" + std::to_string(sums[k]);
  out += " hit_rate=" + format_number(hit_rate) +
         " p50_us=" + format_number(estimate_merged.p50()) +
         " p95_us=" + format_number(estimate_merged.p95()) +
         " p99_us=" + format_number(estimate_merged.p99()) +
         " max_us=" + format_number(estimate_merged.max());
  if (with_hist) {
    const LatencyHistogram request_merged =
        request_hist.has_value() ? *request_hist : LatencyHistogram();
    out += " request_hist=" + request_merged.serialize() +
           " estimate_hist=" + estimate_merged.serialize();
  }
  return format_ok(out);
}

std::string Router::local_error(std::size_t line_number, std::string_view line) {
  // The fast scan rejected the line's key= field; run the full parse so the
  // error bytes match what a monolithic server would answer.
  errors_.fetch_add(1, std::memory_order_relaxed);
  try {
    parse_request(line);
  } catch (const ProtocolError& e) {
    return format_error(line_number, e.code(), e.what());
  } catch (const Error& e) {
    return format_error(line_number, ProtocolErrorCode::State, e.what());
  }
  // Scan and parse disagreeing is pinned impossible by the key fuzz test.
  return format_error(line_number, ProtocolErrorCode::Parse,
                      "malformed key= routing field");
}

std::string Router::handle_line(std::string_view line, std::size_t line_number,
                                bool* quit) {
  if (!is_request_line(line)) return {};
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (options_.max_line_bytes > 0 && line.size() > options_.max_line_bytes) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return format_error(line_number, ProtocolErrorCode::Parse,
                        "line too long (" + std::to_string(line.size()) + " > " +
                            std::to_string(options_.max_line_bytes) + " bytes)");
  }
  const RouteKey route = extract_route_key(line);
  if (route.kind == RouteKey::Kind::Malformed) return local_error(line_number, line);

  // Peek the verb: HELLO and QUIT are connection-scoped and answered
  // locally (forwarding QUIT would close a pooled backend connection),
  // MAPGET/MAPSET operate on the router's own map, MIGRATE/REBALANCE
  // dispatch to the coordinator, and a keyless STATS is the cluster
  // fan-out.  Everything else forwards.
  const std::string_view body = trim(line);
  const std::size_t space = body.find_first_of(" \t");
  const std::string verb =
      to_lower(space == std::string_view::npos ? body : body.substr(0, space));
  if (verb == "hello" || verb == "quit" || verb == "bye" || verb == "mapset" ||
      verb == "mapget" || verb == "migrate" || verb == "rebalance" ||
      (verb == "stats" && route.kind == RouteKey::Kind::None)) {
    try {
      const Request request = parse_request(line);
      switch (request.kind) {
        case RequestKind::Hello:
          if (request.version != kProtocolVersion)
            throw ProtocolError(ProtocolErrorCode::Proto,
                                "unsupported version '" + request.version + "', want " +
                                    std::string(kProtocolVersion));
          return format_ok("proto=" + std::string(kProtocolVersion));
        case RequestKind::Quit:
          if (quit != nullptr) *quit = true;
          return format_ok("bye");
        case RequestKind::Stats:
          return stats_response(*table(), request.stats_hist, line_number);
        case RequestKind::MapGet: {
          const std::shared_ptr<const RoutingTable> table = this->table();
          return format_ok("map_version=" + std::to_string(table->map.version) +
                           " map=" + encode_map_line(table->map));
        }
        case RequestKind::MapSet: {
          PartitionMap fresh = decode_map_line(request.map_text);
          const std::uint64_t version = fresh.version;
          const std::size_t count = fresh.partitions.size();
          if (!install_map(std::move(fresh)))
            throw ProtocolError(ProtocolErrorCode::State,
                                "MAPSET: version " + std::to_string(version) +
                                    " is not newer than installed " +
                                    std::to_string(map_version()));
          return format_ok("map_version=" + std::to_string(version) +
                           " partitions=" + std::to_string(count));
        }
        default:
          // MIGRATE / REBALANCE.
          if (coordinator_ == nullptr)
            throw ProtocolError(ProtocolErrorCode::State,
                                "no migration coordinator attached");
          return coordinator_->handle(request, line_number);
      }
    } catch (const ProtocolError& e) {
      errors_.fetch_add(1, std::memory_order_relaxed);
      return format_error(line_number, e.code(), e.what());
    } catch (const Error& e) {
      errors_.fetch_add(1, std::memory_order_relaxed);
      return format_error(line_number, ProtocolErrorCode::State, e.what());
    }
  }
  return route_and_forward(
      route.kind == RouteKey::Kind::Keyed ? route.key : std::string_view(), line,
      line_number);
}

void Router::serve_stream(std::istream& in, std::ostream& out) {
  transport_.serve_stream(in, out);
}

std::uint16_t Router::listen_on(std::uint16_t port) { return transport_.listen_on(port); }

void Router::serve() { transport_.serve(); }

void Router::shutdown() { transport_.shutdown(); }

RouterStats Router::stats() const {
  RouterStats out;
  out.requests = requests_.load(std::memory_order_relaxed);
  out.errors = errors_.load(std::memory_order_relaxed) + transport_.overflows();
  out.forwarded = forwarded_.load(std::memory_order_relaxed);
  out.retries = retries_.load(std::memory_order_relaxed);
  out.failovers = failovers_.load(std::memory_order_relaxed);
  out.shed_connections = transport_.shed_connections();
  out.moved_redirects = moved_redirects_.load(std::memory_order_relaxed);
  out.stale_retires = stale_retires_.load(std::memory_order_relaxed);
  out.paused_waits = paused_waits_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace rtp
