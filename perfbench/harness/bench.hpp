// Shared types of the benchmark harness: run options, the outcome every
// workload returns, and small process-level helpers.
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "report.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 20.0;
  bool trace = false;
  std::string out_dir;  ///< scratch files, logs and the result record
  std::string bin_dir;  ///< where rtpd and rtprouter were built
};

struct Outcome {
  /// name -> (value, unit); end-to-end metrics when untraced, per-layer
  /// metrics when traced.
  std::map<std::string, std::pair<double, std::string>> metrics;
  long long attempted = 0;
  long long failed = 0;
  /// Correctness-gate failures, one message each.
  std::vector<std::string> errors;
  /// Workload-specific provenance and sample counts (JSON object body).
  JsonObject details;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void fail(const std::string& message, long long count = 1) {
    errors.push_back(message);
    failed += count;
  }
};

/// Bit-exact double comparison (the correctness gates compare answers by
/// their IEEE bit patterns, so -0.0 and NaN payloads count as different).
inline bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Peak resident set (VmHWM) of `pid` in MiB, or of this process when
/// pid is 0; 0 when unreadable.
double peak_rss_mb(int pid = 0);

inline double seconds_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

Outcome run_offline(const RunOptions& options);
Outcome run_online(const RunOptions& options);

}  // namespace perfbench
