// The rtpd line protocol: deterministic, versioned, strict.
//
// One request per line, whitespace-separated tokens, one response line per
// request — drivable from files, pipes and tests alike.  Event lines carry
// the event time first; job fields use the paper's single-letter
// abbreviations as key=value pairs ("-" marks an absent maximum run time):
//
//   HELLO RTP/1
//   SUBMIT <t> <id> <nodes> <runtime> <maxrt|-> [u=... e=... a=... ...]
//   START <t> <id>
//   FINISH <t> <id>
//   CANCEL <t> <id>
//   FAIL <t> <id>
//   NODEDOWN <t> <nodes>
//   NODEUP <t> <nodes>
//   ESTIMATE <id>
//   INTERVAL <id> [<optimistic_scale> <pessimistic_scale>]
//   STATE
//   STATS [hist]
//   PROMOTE
//   MIGRATE to=<host:port> | status | retire version=<v> | resume | detach
//   MAPSET map=<encoded-map>
//   MAPGET
//   REBALANCE [to=<host:port>]
//   QUIT
//
// Routing.  Any request line may carry one optional `key=<token>` field
// after the verb (position among the other tokens is free): the session key
// a routing tier (tools/rtprouter) partitions traffic on.  Servers parse
// and ignore it — it is addressing metadata, not session state — so the
// same keyed line is valid against a single rtpd and through a router.  A
// duplicate or empty `key=` is a parse error.  `STATS hist` appends the
// exact serialized latency histograms (request_hist=/estimate_hist=, see
// stats/histogram.hpp) so a router can merge worker quantiles losslessly.
//
// Responses:
//
//   OK [key=value ...]
//   ERR line=<n> code=<parse|state|proto|busy|readonly|moved> msg=<text to end of line>
//
// Parse errors (malformed tokens) report code=parse; semantically invalid
// events against a healthy session (FINISH before SUBMIT, duplicate ids,
// time running backwards) report code=state; version mismatches and unknown
// verbs report code=proto.  An ERR line never changes session state.
//
// Migration.  MIGRATE/MAPSET/MAPGET drive live partition hand-off (see
// service/migrate.hpp).  A worker that has retired its session answers
// every session-addressed request with
//
//   ERR line=<n> code=moved map_version=<N> msg=<text>
//
// where map_version names the partition-map version that reassigned the
// key; a router self-heals by refetching the map (MAPGET) and retrying.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "workload/job.hpp"

namespace rtp {

/// Protocol version token; the server greets with it and HELLO checks it.
inline constexpr std::string_view kProtocolVersion = "RTP/1";

enum class RequestKind {
  Hello,
  Submit,
  Start,
  Finish,
  Cancel,
  Fail,
  NodeDown,
  NodeUp,
  Estimate,
  Interval,
  State,
  Stats,
  Promote,
  Migrate,
  MapSet,
  MapGet,
  Rebalance,
  Quit,
};

struct Request {
  RequestKind kind = RequestKind::State;
  Seconds time = 0.0;       // event requests
  JobId id = kInvalidJob;   // job-addressed requests
  int nodes = 0;            // NODEDOWN / NODEUP
  Job job;                  // SUBMIT payload (id duplicated into `job.id`)
  double optimistic_scale = 0.5;   // INTERVAL
  double pessimistic_scale = 2.0;  // INTERVAL
  std::string version;      // HELLO payload
  bool stats_hist = false;  // STATS: append serialized latency histograms
  /// MIGRATE subcommand: "attach" (to=), "status", "retire", "resume",
  /// "detach".  Empty for non-MIGRATE requests.
  std::string migrate_action;
  /// MIGRATE/REBALANCE destination (`to=<host:port>`); empty when absent.
  std::string migrate_to;
  /// MIGRATE retire / MAPSET: the partition-map version being installed.
  std::uint64_t map_version = 0;
  /// MAPSET payload: single-token encoded map (see encode_map_line).
  std::string map_text;
  /// Optional routing key (`key=` field); empty when the line carried none.
  std::string key;
};

/// Error category carried by ProtocolError; rendered into the ERR line.
/// `Busy` is the overload-shedding code: the server refused to queue the
/// request (bounded pending queue, deadline exceeded, connection limit) —
/// the client should back off and retry.  `ReadOnly` is the follower code:
/// a warm standby mirrors the primary and answers queries, but mutating
/// events must go to the primary — the client should fail over to the next
/// address in its list.
/// `Moved` is the migration code: the addressed session retired from this
/// worker after a partition hand-off — the reply carries the map version
/// that reassigned it (`map_version=<N>` before msg=) and the client
/// should refetch the partition map and retry against the new owner.
enum class ProtocolErrorCode { Parse, State, Proto, Busy, ReadOnly, Moved };

/// Thrown by parse_request on malformed input; the server also raises it
/// for version mismatches.  Session-level rtp::Error maps to code=state.
class ProtocolError : public std::runtime_error {
 public:
  ProtocolError(ProtocolErrorCode code, const std::string& message)
      : std::runtime_error(message), code_(code) {}
  ProtocolErrorCode code() const { return code_; }

 private:
  ProtocolErrorCode code_;
};

/// Thrown when a retired session is addressed; carries the partition-map
/// version for the reply's `map_version=` token (see format_moved).
class MovedError : public ProtocolError {
 public:
  MovedError(std::uint64_t map_version, const std::string& message)
      : ProtocolError(ProtocolErrorCode::Moved, message), map_version_(map_version) {}
  std::uint64_t map_version() const { return map_version_; }

 private:
  std::uint64_t map_version_;
};

/// Parse one request line (blank and '#'-comment lines are not requests;
/// callers skip them — see is_request_line).  Throws ProtocolError.
Request parse_request(std::string_view line);

/// False for blank lines and '#' comments, which carry no request.
bool is_request_line(std::string_view line);

/// Serialize a request back into a protocol line (used by the event-log
/// dumper; parse_request(format_request(r)) round-trips).
std::string format_request(const Request& request);

/// Response formatting.  `detail` is a preformatted "key=value ..." tail
/// (may be empty).
std::string format_ok(const std::string& detail = {});
std::string format_error(std::size_t line_number, ProtocolErrorCode code,
                         const std::string& message);

/// The retired-session reply: "ERR line=<n> code=moved map_version=<N>
/// msg=<text>".  map_version rides between code= and msg= so err parsers
/// that stop at msg= still see it.
std::string format_moved(std::size_t line_number, std::uint64_t map_version,
                         const std::string& message);

std::string to_string(ProtocolErrorCode code);

/// The code token of a reply ("busy" from "ERR line=3 code=busy ..."),
/// empty when absent — what retry and failover decisions key on.
std::string reply_error_code(std::string_view line);

/// Deterministic number rendering used across responses and the event-log
/// dumper: fixed notation, up to 6 fractional digits, trailing zeros
/// trimmed ("12", "0.5", "3.25").
std::string format_number(double value);

/// Exact (bit-faithful) double encoding for the durability layer: the IEEE
/// bit pattern as 16 lower-case hex digits.  parse_double_bits round-trips
/// every value, including ones format_number would round.
std::string format_double_bits(double value);

/// Inverse of format_double_bits; throws ProtocolError(Parse) on malformed
/// input.
double parse_double_bits(std::string_view text);

/// Routing-key fast scan (the router's per-line hot path).
///
/// Scans the whitespace-separated tokens *after* the verb slot for `key=`
/// fields without parsing the request: None when no `key=` token exists,
/// Keyed with the key value when exactly one well-formed `key=<token>` is
/// present, Malformed on a duplicate or empty `key=`.  The scan agrees with
/// the full parse on every input (pinned by the router key fuzz test):
/// whenever parse_request succeeds its Request::key equals the scanned key,
/// and whenever the scan reports Malformed, parse_request throws.  `key`
/// points into the caller's line.
struct RouteKey {
  enum class Kind { None, Keyed, Malformed };
  Kind kind = Kind::None;
  std::string_view key;
};

RouteKey extract_route_key(std::string_view line);

}  // namespace rtp
