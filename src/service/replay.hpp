// Record a batch simulation as a session event stream and replay it.
//
// The recorder runs the existing batch simulate() with an observer that
// writes every semantic event — SUBMIT, START, FINISH, FAIL, NODEDOWN,
// NODEUP — in exact processing order, as protocol Request records.  The
// stream is the bridge between the two worlds: feeding it through an
// OnlineSession must reproduce the batch SimResult and the
// WaitTimeObserver error statistics bit-for-bit (the keystone equivalence
// test), and dumping it with write_event_log() yields a file that drives
// rtpd over a pipe.
//
// replay_through_session() is the open-loop driver: events are applied at
// a configurable time-compression factor, every SUBMIT is followed by an
// ESTIMATE query (plus optional repeats, which the shadow schedule answers
// from their existing booking), and per-query latency lands in a
// log-bucketed histogram.
#pragma once

#include <iosfwd>
#include <vector>

#include "service/protocol.hpp"
#include "service/session.hpp"
#include "sim/simulator.hpp"
#include "stats/histogram.hpp"

namespace rtp {

struct RecordedRun {
  std::vector<Request> events;  ///< semantic order, non-decreasing times
  SimResult batch;              ///< the batch result the stream must reproduce
};

/// Run `workload` under `policy` / `scheduler_estimator` with the batch
/// simulator, recording the event stream.  Mirrors run_wait_prediction's
/// live side: pass MaxRuntimePredictor for the paper's setup.
RecordedRun record_session_log(const Workload& workload, const SchedulerPolicy& policy,
                               RuntimeEstimator& scheduler_estimator,
                               const SimOptions& options = {});

struct ReplayOptions {
  /// Simulated seconds replayed per wall-clock second; 0 disables pacing
  /// (as fast as possible).  E.g. 86400 compresses a day into a second.
  double time_compression = 0.0;
  /// Issue an ESTIMATE for every submitted job right after its SUBMIT —
  /// the paper's "predict at submission", scored by the session.
  bool estimate_on_submit = true;
  /// Repeat each post-submit ESTIMATE this many extra times.  Repeats reuse
  /// the first query's booking and count as cache hits.
  int extra_queries = 0;
};

struct ReplayReport {
  std::size_t events = 0;
  std::size_t queries = 0;
  double wall_seconds = 0.0;
  double queries_per_sec = 0.0;
  /// Per-ESTIMATE service latency in microseconds.
  LatencyHistogram latency_us;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

/// Apply `events` to `session` in order via the C++ API (no text layer),
/// timing every estimate query.  Throws rtp::Error on an inconsistent
/// stream.
ReplayReport replay_through_session(OnlineSession& session,
                                    const std::vector<Request>& events,
                                    const ReplayOptions& options = {});

/// Dump events as protocol lines (with a small comment header) — a file
/// that can be piped straight into rtpd's stdin mode.
void write_event_log(std::ostream& out, const std::vector<Request>& events);

}  // namespace rtp
