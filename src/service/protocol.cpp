#include "service/protocol.hpp"

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstring>

#include "core/error.hpp"
#include "core/strings.hpp"
#include "workload/fields.hpp"

namespace rtp {
namespace {

[[noreturn]] void parse_fail(const std::string& message) {
  throw ProtocolError(ProtocolErrorCode::Parse, message);
}

double number(std::string_view token, std::string_view context) {
  try {
    return parse_double(token, context);
  } catch (const Error& e) {
    parse_fail(e.what());
  }
}

long long integer(std::string_view token, std::string_view context) {
  try {
    return parse_int(token, context);
  } catch (const Error& e) {
    parse_fail(e.what());
  }
}

Seconds event_time(std::string_view token) {
  const double t = number(token, "event time");
  if (t < 0.0) parse_fail("event time must be >= 0, got " + std::string(token));
  return t;
}

JobId job_id(std::string_view token) {
  const long long id = integer(token, "job id");
  if (id < 0 || id >= static_cast<long long>(kInvalidJob))
    parse_fail("job id out of range: " + std::string(token));
  return static_cast<JobId>(id);
}

int node_count(std::string_view token) {
  const long long n = integer(token, "node count");
  if (n < 1 || n > 1'000'000) parse_fail("node count out of range: " + std::string(token));
  return static_cast<int>(n);
}

void set_field(Job& job, Characteristic c, std::string value) {
  switch (c) {
    case Characteristic::Type: job.type = std::move(value); return;
    case Characteristic::Queue: job.queue = std::move(value); return;
    case Characteristic::Class: job.job_class = std::move(value); return;
    case Characteristic::User: job.user = std::move(value); return;
    case Characteristic::Script: job.script = std::move(value); return;
    case Characteristic::Executable: job.executable = std::move(value); return;
    case Characteristic::Arguments: job.arguments = std::move(value); return;
    case Characteristic::NetworkAdaptor: job.network_adaptor = std::move(value); return;
    case Characteristic::Nodes: break;
  }
  parse_fail("job field must be categorical, got 'n'");
}

void expect_arity(const std::vector<std::string_view>& tokens, std::size_t count,
                  const char* usage) {
  if (tokens.size() != count) parse_fail(std::string("expected: ") + usage);
}

}  // namespace

bool is_request_line(std::string_view line) {
  const std::string_view body = trim(line);
  return !body.empty() && body.front() != '#';
}

RouteKey extract_route_key(std::string_view line) {
  RouteKey out;
  std::size_t i = 0;
  bool verb_slot = true;
  while (i < line.size()) {
    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) ++i;
    const std::size_t start = i;
    while (i < line.size() && !std::isspace(static_cast<unsigned char>(line[i]))) ++i;
    if (i == start) break;
    const std::string_view token = line.substr(start, i - start);
    if (verb_slot) {
      verb_slot = false;
      continue;
    }
    if (!starts_with(token, "key=")) continue;
    if (out.kind == RouteKey::Kind::Keyed || token.size() == 4) {
      out.kind = RouteKey::Kind::Malformed;
      out.key = {};
      return out;
    }
    out.kind = RouteKey::Kind::Keyed;
    out.key = token.substr(4);
  }
  return out;
}

Request parse_request(std::string_view line) {
  auto tokens = split_whitespace(line);
  if (tokens.empty()) parse_fail("empty request line");
  const std::string verb = to_lower(tokens[0]);
  Request req;

  // Strip the optional routing field before verb parsing so every verb's
  // arity check sees the line it would without one.  The token in the verb
  // slot is never a key, mirroring extract_route_key.
  {
    std::size_t keep = 1;
    for (std::size_t i = 1; i < tokens.size(); ++i) {
      if (!starts_with(tokens[i], "key=")) {
        tokens[keep++] = tokens[i];
        continue;
      }
      if (!req.key.empty()) parse_fail("duplicate key= routing field");
      if (tokens[i].size() == 4) parse_fail("empty key= routing field");
      req.key = std::string(tokens[i].substr(4));
    }
    tokens.resize(keep);
  }

  if (verb == "hello") {
    expect_arity(tokens, 2, "HELLO <version>");
    req.kind = RequestKind::Hello;
    req.version = std::string(tokens[1]);
    return req;
  }
  if (verb == "submit") {
    if (tokens.size() < 6)
      parse_fail("expected: SUBMIT <t> <id> <nodes> <runtime> <maxrt|-> [k=v ...]");
    req.kind = RequestKind::Submit;
    req.time = event_time(tokens[1]);
    req.id = job_id(tokens[2]);
    req.job.id = req.id;
    req.job.nodes = node_count(tokens[3]);
    req.job.runtime = number(tokens[4], "runtime");
    if (req.job.runtime < 0.0) parse_fail("runtime must be >= 0");
    if (tokens[5] == "-") {
      req.job.max_runtime = kNoTime;
    } else {
      req.job.max_runtime = number(tokens[5], "max runtime");
      if (req.job.max_runtime < 0.0) parse_fail("max runtime must be >= 0 or '-'");
    }
    req.job.submit = req.time;
    for (std::size_t i = 6; i < tokens.size(); ++i) {
      const auto parts = split(tokens[i], '=');
      if (parts.size() != 2 || parts[0].empty() || parts[1].empty())
        parse_fail("job field must be <abbr>=<value>, got '" + std::string(tokens[i]) + "'");
      Characteristic c;
      try {
        c = characteristic_from_abbr(parts[0]);
      } catch (const Error& e) {
        parse_fail(e.what());
      }
      set_field(req.job, c, std::string(parts[1]));
    }
    return req;
  }
  if (verb == "start" || verb == "finish" || verb == "cancel" || verb == "fail") {
    expect_arity(tokens, 3, "START|FINISH|CANCEL|FAIL <t> <id>");
    req.kind = verb == "start"    ? RequestKind::Start
               : verb == "finish" ? RequestKind::Finish
               : verb == "cancel" ? RequestKind::Cancel
                                  : RequestKind::Fail;
    req.time = event_time(tokens[1]);
    req.id = job_id(tokens[2]);
    return req;
  }
  if (verb == "nodedown" || verb == "nodeup") {
    expect_arity(tokens, 3, "NODEDOWN|NODEUP <t> <nodes>");
    req.kind = verb == "nodedown" ? RequestKind::NodeDown : RequestKind::NodeUp;
    req.time = event_time(tokens[1]);
    req.nodes = node_count(tokens[2]);
    return req;
  }
  if (verb == "estimate") {
    expect_arity(tokens, 2, "ESTIMATE <id>");
    req.kind = RequestKind::Estimate;
    req.id = job_id(tokens[1]);
    return req;
  }
  if (verb == "interval") {
    if (tokens.size() != 2 && tokens.size() != 4)
      parse_fail("expected: INTERVAL <id> [<optimistic_scale> <pessimistic_scale>]");
    req.kind = RequestKind::Interval;
    req.id = job_id(tokens[1]);
    if (tokens.size() == 4) {
      req.optimistic_scale = number(tokens[2], "optimistic scale");
      req.pessimistic_scale = number(tokens[3], "pessimistic scale");
      if (!(req.optimistic_scale > 0.0 && req.optimistic_scale <= 1.0))
        parse_fail("optimistic scale must be in (0, 1]");
      if (req.pessimistic_scale < 1.0) parse_fail("pessimistic scale must be >= 1");
    }
    return req;
  }
  if (verb == "state") {
    expect_arity(tokens, 1, "STATE");
    req.kind = RequestKind::State;
    return req;
  }
  if (verb == "stats") {
    if (tokens.size() == 2 && to_lower(tokens[1]) == "hist") {
      req.stats_hist = true;
    } else {
      expect_arity(tokens, 1, "STATS [hist]");
    }
    req.kind = RequestKind::Stats;
    return req;
  }
  if (verb == "promote") {
    expect_arity(tokens, 1, "PROMOTE");
    req.kind = RequestKind::Promote;
    return req;
  }
  if (verb == "migrate") {
    req.kind = RequestKind::Migrate;
    if (tokens.size() < 2)
      parse_fail("expected: MIGRATE to=<host:port> | status | retire version=<v> | resume | detach");
    const std::string sub = to_lower(tokens[1]);
    if (sub == "status" || sub == "resume" || sub == "detach") {
      expect_arity(tokens, 2, "MIGRATE status|resume|detach");
      req.migrate_action = sub;
      return req;
    }
    if (sub == "retire") {
      expect_arity(tokens, 3, "MIGRATE retire version=<v>");
      if (!starts_with(tokens[2], "version="))
        parse_fail("expected: MIGRATE retire version=<v>");
      const long long v = integer(tokens[2].substr(8), "map version");
      if (v < 1) parse_fail("map version must be >= 1");
      req.migrate_action = "retire";
      req.map_version = static_cast<std::uint64_t>(v);
      return req;
    }
    if (starts_with(tokens[1], "to=")) {
      expect_arity(tokens, 2, "MIGRATE to=<host:port>");
      if (tokens[1].size() == 3) parse_fail("empty to= destination");
      req.migrate_action = "attach";
      req.migrate_to = std::string(tokens[1].substr(3));
      return req;
    }
    parse_fail("expected: MIGRATE to=<host:port> | status | retire version=<v> | resume | detach");
  }
  if (verb == "mapset") {
    expect_arity(tokens, 2, "MAPSET map=<encoded-map>");
    if (!starts_with(tokens[1], "map=")) parse_fail("expected: MAPSET map=<encoded-map>");
    if (tokens[1].size() == 4) parse_fail("empty map= payload");
    req.kind = RequestKind::MapSet;
    req.map_text = std::string(tokens[1].substr(4));
    return req;
  }
  if (verb == "mapget") {
    expect_arity(tokens, 1, "MAPGET");
    req.kind = RequestKind::MapGet;
    return req;
  }
  if (verb == "rebalance") {
    if (tokens.size() == 2) {
      if (!starts_with(tokens[1], "to=")) parse_fail("expected: REBALANCE [to=<host:port>]");
      if (tokens[1].size() == 3) parse_fail("empty to= destination");
      req.migrate_to = std::string(tokens[1].substr(3));
    } else {
      expect_arity(tokens, 1, "REBALANCE [to=<host:port>]");
    }
    req.kind = RequestKind::Rebalance;
    return req;
  }
  if (verb == "quit" || verb == "bye") {
    expect_arity(tokens, 1, "QUIT");
    req.kind = RequestKind::Quit;
    return req;
  }
  throw ProtocolError(ProtocolErrorCode::Proto, "unknown verb '" + std::string(tokens[0]) + "'");
}

std::string format_number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", value);
  std::string out(buf);
  const auto dot = out.find('.');
  if (dot != std::string::npos) {
    auto last = out.find_last_not_of('0');
    if (last == dot) --last;  // strip a bare trailing dot too
    out.erase(last + 1);
  }
  return out;
}

namespace {

/// The `key=` routing-field tail (validated: one token, round-trippable).
std::string key_suffix(const Request& request) {
  if (request.key.empty()) return {};
  RTP_CHECK(request.key.find_first_of(" \t\n\r") == std::string::npos,
            "routing key contains whitespace; not representable: " + request.key);
  return " key=" + request.key;
}

std::string format_request_body(const Request& request) {
  switch (request.kind) {
    case RequestKind::Hello:
      return "HELLO " + request.version;
    case RequestKind::Submit: {
      std::string line = "SUBMIT " + format_number(request.time) + " " +
                         std::to_string(request.id) + " " +
                         std::to_string(request.job.nodes) + " " +
                         format_number(request.job.runtime) + " " +
                         (request.job.has_max_runtime()
                              ? format_number(request.job.max_runtime)
                              : std::string("-"));
      for (Characteristic c : all_characteristics()) {
        if (c == Characteristic::Nodes) continue;
        const std::string& value = request.job.field(c);
        if (value.empty()) continue;
        RTP_CHECK(value.find_first_of(" \t\n\r") == std::string::npos,
                  "job field value contains whitespace; not representable: " + value);
        line += " " + std::string(characteristic_abbr(c)) + "=" + value;
      }
      return line;
    }
    case RequestKind::Start:
      return "START " + format_number(request.time) + " " + std::to_string(request.id);
    case RequestKind::Finish:
      return "FINISH " + format_number(request.time) + " " + std::to_string(request.id);
    case RequestKind::Cancel:
      return "CANCEL " + format_number(request.time) + " " + std::to_string(request.id);
    case RequestKind::Fail:
      return "FAIL " + format_number(request.time) + " " + std::to_string(request.id);
    case RequestKind::NodeDown:
      return "NODEDOWN " + format_number(request.time) + " " + std::to_string(request.nodes);
    case RequestKind::NodeUp:
      return "NODEUP " + format_number(request.time) + " " + std::to_string(request.nodes);
    case RequestKind::Estimate:
      return "ESTIMATE " + std::to_string(request.id);
    case RequestKind::Interval:
      return "INTERVAL " + std::to_string(request.id) + " " +
             format_number(request.optimistic_scale) + " " +
             format_number(request.pessimistic_scale);
    case RequestKind::State:
      return "STATE";
    case RequestKind::Stats:
      return request.stats_hist ? "STATS hist" : "STATS";
    case RequestKind::Promote:
      return "PROMOTE";
    case RequestKind::Migrate:
      if (request.migrate_action == "attach") return "MIGRATE to=" + request.migrate_to;
      if (request.migrate_action == "retire")
        return "MIGRATE retire version=" + std::to_string(request.map_version);
      return "MIGRATE " + request.migrate_action;
    case RequestKind::MapSet:
      return "MAPSET map=" + request.map_text;
    case RequestKind::MapGet:
      return "MAPGET";
    case RequestKind::Rebalance:
      return request.migrate_to.empty() ? std::string("REBALANCE")
                                        : "REBALANCE to=" + request.migrate_to;
    case RequestKind::Quit:
      return "QUIT";
  }
  fail("unreachable request kind");
}

}  // namespace

std::string format_request(const Request& request) {
  return format_request_body(request) + key_suffix(request);
}

std::string to_string(ProtocolErrorCode code) {
  switch (code) {
    case ProtocolErrorCode::Parse: return "parse";
    case ProtocolErrorCode::State: return "state";
    case ProtocolErrorCode::Proto: return "proto";
    case ProtocolErrorCode::Busy: return "busy";
    case ProtocolErrorCode::ReadOnly: return "readonly";
    case ProtocolErrorCode::Moved: return "moved";
  }
  fail("unreachable protocol error code");
}

std::string reply_error_code(std::string_view line) {
  for (const std::string_view token : split_whitespace(line))
    if (starts_with(token, "code=")) return std::string(token.substr(5));
  return {};
}

std::string format_double_bits(double value) { return double_bits_hex(value); }

double parse_double_bits(std::string_view text) {
  try {
    return parse_double_bits_hex(text, "protocol double");
  } catch (const Error& e) {
    parse_fail(e.what());
  }
}

std::string format_ok(const std::string& detail) {
  return detail.empty() ? "OK" : "OK " + detail;
}

std::string format_error(std::size_t line_number, ProtocolErrorCode code,
                         const std::string& message) {
  return "ERR line=" + std::to_string(line_number) + " code=" + to_string(code) +
         " msg=" + message;
}

std::string format_moved(std::size_t line_number, std::uint64_t map_version,
                         const std::string& message) {
  return "ERR line=" + std::to_string(line_number) +
         " code=moved map_version=" + std::to_string(map_version) + " msg=" + message;
}

}  // namespace rtp
