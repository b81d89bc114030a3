// RTP/1 client with timeouts, retry, and follower-aware failover.
//
// A ServiceClient holds an *ordered* list of server addresses — primary
// first, then warm standbys — and drives one request/response exchange at a
// time over a lazily (re)established TCP connection:
//
//  * transport trouble (connect failure, connect/read timeout, a dropped
//    connection) closes the socket and fails over to the next address;
//  * "ERR code=busy" (overload shedding) retries the *same* address after a
//    backoff — the server asked us to come back, not to leave;
//  * "ERR code=readonly" (a follower) fails over to the next address — the
//    primary is elsewhere in the list;
//  * every other response, OK or ERR, is definitive and returned as-is.
//
// Retries use capped exponential backoff with deterministic jitter: delays
// are min(backoff_min * 2^attempt, backoff_max) scaled by a uniform factor
// in [0.5, 1.0) drawn from a seeded src/core/rng stream, so a test's retry
// timeline is reproducible while a real fleet's is decorrelated.
//
// The client transparently skips greeting lines (they begin with "RTP/1"),
// so it works against servers with the greeting on or off.  Not
// thread-safe; one client per thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/rng.hpp"

namespace rtp {

/// The retry delay ServiceClient and Router share: min(min_ms * 2^attempt,
/// max_ms) scaled by one uniform draw in [0.5, 1.0) from `rng`.  `attempt`
/// is 0 for the first retry.
std::chrono::milliseconds backoff_delay(std::uint32_t attempt, std::uint32_t min_ms,
                                        std::uint32_t max_ms, Rng& rng);

/// One request/reply exchange on a connected socket, the client side of the
/// protocol that ServiceClient, Router and MigrationCoordinator share: send
/// `line`, then read reply lines into *reply, skipping greetings.  *buffer
/// keeps the bytes read past the reply for the next call.  False with
/// *error ("<address> ...") on transport failure, a reply longer than
/// `max_line_bytes`, or a reply that is neither OK nor ERR.
bool exchange_line(int fd, std::string* buffer, std::string_view line,
                   std::size_t max_line_bytes, const std::string& address,
                   std::string* reply, std::string* error);

struct ClientOptions {
  std::uint32_t connect_timeout_ms = 2000;
  /// SO_RCVTIMEO on the connection: a response slower than this is a
  /// transport failure (and fails over).
  std::uint32_t read_timeout_ms = 5000;
  /// Total tries per request() across retries and failover.
  std::uint32_t max_attempts = 4;
  std::uint32_t backoff_min_ms = 50;
  std::uint32_t backoff_max_ms = 2000;
  /// Seed for the backoff jitter stream.
  std::uint64_t jitter_seed = 0x52545043u;  // "RTPC"
  /// Reject response lines longer than this.
  std::size_t max_line_bytes = 1 << 20;
};

/// One server answer.  `ok` mirrors the OK/ERR verdict; `code` is the ERR
/// code token ("busy", "readonly", "state", …) and empty on OK.
struct ClientReply {
  bool ok = false;
  std::string line;     ///< the full response line
  std::string code;
  std::string address;  ///< "host:port" that answered
};

class ServiceClient {
 public:
  /// `addresses` are "host:port" strings in failover order; at least one is
  /// required and all must parse (throws rtp::Error otherwise).
  explicit ServiceClient(std::vector<std::string> addresses, ClientOptions options = {});
  ~ServiceClient();

  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;

  /// Send one request line (no trailing newline) and return the server's
  /// answer, retrying and failing over per the policy above.  When every
  /// attempt died in transport, throws rtp::Error carrying the last error;
  /// when a server kept answering busy/readonly until attempts ran out, the
  /// last such reply is returned instead.
  ClientReply request(const std::string& line);

  /// Address of the live connection ("" when disconnected).
  std::string connected_address() const;

  /// Drop the connection (the next request reconnects).
  void close();

 private:
  struct Endpoint {
    std::string address;
    std::string host;
    std::uint16_t port = 0;
  };

  bool ensure_connected(std::string* error);
  bool exchange(const std::string& line, ClientReply* reply, std::string* error);

  ClientOptions options_;
  std::vector<Endpoint> endpoints_;
  std::size_t current_ = 0;  ///< index of the address to try next
  int fd_ = -1;
  std::string buffer_;  ///< unread bytes from the connection
  Rng rng_;
};

}  // namespace rtp
