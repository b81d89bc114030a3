// Metric arithmetic, span tracing and JSON output for the benchmark harness.
//
// Everything here is pure bookkeeping over numbers the workloads collect;
// the unit tests in perfbench/tests pin each rule.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// --- Percentiles. -----------------------------------------------------------

/// The highest percentile among 99.99, 99.9, 99, 95, 90, 75 and 50 that has
/// at least ten of `samples` strictly beyond it (samples * (1 - p/100) >= 10).
/// Returns 0 when even the median does not qualify (fewer than 20 samples).
double tail_percentile(std::size_t samples);

/// Nearest-rank quantile (q in [0, 1]) of `values`; 0 for an empty input.
double quantile(std::vector<double> values, double q);

struct Summary {
  std::size_t count = 0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double tail_pct = 0.0;  ///< tail_percentile(count)
  double tail = 0.0;      ///< value at tail_pct
};

Summary summarize(const std::vector<double>& values);

/// Median of `values` (nearest rank); 0 for an empty input.
double median(const std::vector<double>& values);

// --- Open-loop load arithmetic. --------------------------------------------

/// Intended send times (microseconds from the pass start) for `n` lines at
/// `rate_per_s` lines per second: line i is due at i * 1e6 / rate.
std::vector<double> open_loop_schedule(std::size_t n, double rate_per_s);

/// Latency counted from the intended send time, so a stall that delays
/// later sends is charged to every request it delays.
inline double latency_from_intended(double intended_us, double done_us) {
  return done_us - intended_us;
}

/// How late the generator actually sent a line.
inline double lateness(double intended_us, double sent_us) { return sent_us - intended_us; }

/// True when the backlog grows over a pass: split [0, last intended send]
/// into `windows` equal windows; at each window's end count the requests
/// due before it and not yet answered.  The backlog grows when that count
/// rises at every window boundary and ends at max(10, 1% of the requests)
/// or more.  `done_us` < 0 marks a request never answered.
bool backlog_grows(const std::vector<double>& intended_us, const std::vector<double>& done_us,
                   std::size_t windows = 4);

struct LadderStep {
  double rate = 0.0;          ///< lines per second
  double tail_us = 0.0;       ///< ESTIMATE tail latency from intended send time
  bool backlog_grew = false;
  bool complete = true;       ///< every line answered correctly
};

/// The sustainable rate on an ascending ladder.  The last step of the
/// passing prefix (tail within `limit_us`, no growing backlog, complete)
/// sets the floor; when the next step fails on latency, the answer is
/// log-interpolated between the two steps to where the tail crosses the limit,
/// so a knee between two ladder rates does not flip between them.  Returns
/// the top rate when every step passes and 0 when the first step fails.
double knee_rate(const std::vector<LadderStep>& steps, double limit_us);

// --- Metric names. -----------------------------------------------------------

/// Metric names are non-empty and use only [A-Za-z0-9_.-].
bool valid_metric_name(std::string_view name);

// --- Spans. ------------------------------------------------------------------

/// In-memory span recorder for one thread.  begin/end nest; account()
/// attributes a fine-grained call (too frequent for a span each) to the
/// open span as child time.  Spans are written out once the run ends.
class Tracer {
 public:
  using Id = std::uint32_t;
  static constexpr Id kNone = 0xffffffffu;

  /// Current steady-clock time in nanoseconds.
  static std::int64_t now_ns();

  Id begin(std::string_view name, std::uint64_t request = 0);
  void end(Id span);
  /// Charge `ns` of work done by `name` to the open span, without a span.
  void account(std::string_view name, std::int64_t ns);

  struct Totals {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  /// Call count, total and self time (duration minus the time covered by
  /// child spans and accounted calls) of every span or call named `name`.
  Totals totals_for(std::string_view name) const;
  std::size_t span_count() const { return spans_.size(); }

  /// One JSON object per span and line: name, start/end ns, parent index
  /// (-1 for a root), request id, self ns.
  void write_jsonl(const std::string& path) const;

 private:
  struct Span {
    std::uint32_t name = 0;
    Id parent = kNone;
    std::uint64_t request = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t child_ns = 0;
  };
  std::uint32_t intern(std::string_view name);

  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t, std::less<>> name_ids_;
  std::map<std::string, Totals, std::less<>> totals_;
  Id open_ = kNone;
};

/// RAII span.  A null tracer records nothing.
class Scope {
 public:
  Scope(Tracer* tracer, std::string_view name, std::uint64_t request = 0)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->begin(name, request) : 0) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  Tracer::Id id_;
};

// --- JSON. -------------------------------------------------------------------

/// Minimal ordered JSON object writer: values are added in call order.
class JsonObject {
 public:
  JsonObject& num(std::string_view key, double value);
  JsonObject& integer(std::string_view key, long long value);
  JsonObject& str(std::string_view key, std::string_view value);
  JsonObject& boolean(std::string_view key, bool value);
  JsonObject& raw(std::string_view key, std::string_view json);
  std::string dump() const { return "{" + body_ + "}"; }

 private:
  void key(std::string_view k);
  std::string body_;
};

std::string json_string(std::string_view text);
/// Shortest round-tripping decimal form (every digit kept).
std::string json_number(double value);
/// A JSON array of numbers.
std::string json_list(const std::vector<double>& values);

}  // namespace perfbench
