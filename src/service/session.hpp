// OnlineSession: the batch simulator turned inside-out.
//
// A session maintains live SystemState from a *stream* of scheduler events
// — SUBMIT / START / FINISH / CANCEL plus the fault events FAIL and
// NODEDOWN / NODEUP — instead of pulling a stored workload through
// simulate().  It mirrors a live scheduler (the paper's deployment: the
// estimate service sits beside the real scheduler and observes it), feeds
// completions to the run-time predictor online, and answers wait-time
// queries with the paper's shadow simulation.
//
// Shadow schedule.  Queries are served by a persistent ShadowSchedule
// (sched/shadow.hpp): every applied event repairs a long-lived mirror +
// booking structure instead of every query copying and replaying the whole
// state.  Answers are bit-identical to copying the state, refreshing every
// estimate and replaying the policy (the tests keep that recompute path as
// their oracle).  A repeated query between events is answered from its
// existing booking; the cache_hits / cache_misses counters report exactly
// that reuse.
//
// Equivalence.  Replaying a batch run's event stream (service/replay.hpp)
// through a session reproduces the batch SimResult metrics and the
// WaitTimeObserver error statistics bit-for-bit: the service is a new
// interface over the same semantics, not a fork of them.
//
// Sessions are single-threaded; the server serializes access (see
// service/server.hpp).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sched/estimator.hpp"
#include "sched/policy.hpp"
#include "sched/shadow.hpp"
#include "sim/metrics.hpp"
#include "stats/summary.hpp"
#include "waitpred/waitpred.hpp"
#include "workload/job.hpp"

namespace rtp {

struct SessionOptions {
  /// Name stamped on result() (SimResult::workload_name).
  std::string name = "online";
};

/// Counters the session keeps beyond SimResult.
struct SessionCounters {
  std::uint64_t events = 0;        ///< state-changing events applied
  std::uint64_t queries = 0;       ///< estimate_wait + estimate_interval calls
  /// estimate_wait answered from an existing booking or EASY replay
  /// (ShadowCounters::reused advanced during the call).
  std::uint64_t cache_hits = 0;
  /// Every other query; estimate_interval always counts here, since its
  /// two band replays always run.
  std::uint64_t cache_misses = 0;
  std::uint64_t canceled = 0;      ///< jobs removed from the queue by CANCEL
};

class OnlineSession {
 public:
  /// `policy` and `predictor` are not owned and must outlive the session.
  /// The policy is the one the mirrored scheduler runs (the shadow replays
  /// it); the predictor supplies run-time predictions for estimates and
  /// learns from FINISH events in arrival order.
  OnlineSession(int machine_nodes, const SchedulerPolicy& policy,
                RuntimeEstimator& predictor, SessionOptions options = {});

  // --- Event stream (times must be non-decreasing). ---------------------
  // Each call validates fully before mutating: a throw (rtp::Error) leaves
  // the session exactly as it was, so a malformed line cannot corrupt state.

  /// A new job entered the queue.  `job.id` must be fresh; `job.submit` is
  /// overwritten with `t`.  The job record travels with the event (the
  /// native-trace fields); `job.runtime` is used only for work accounting
  /// at FINISH and is surfaced to the predictor no earlier than that.
  void submit(const Job& job, Seconds t);

  /// The mirrored scheduler started queued job `id` at `t`.
  void start(JobId id, Seconds t);

  /// Running job `id` completed at `t`.  Feeds the predictor.
  void finish(JobId id, Seconds t);

  /// Queued job `id` was removed without running (user abort, abandoned
  /// retries).
  void cancel(JobId id, Seconds t);

  /// The current attempt of running job `id` died (job hazard or node
  /// loss).  The job returns to the queue tail immediately; its elapsed
  /// node-seconds count as wasted work.
  void fail(JobId id, Seconds t);

  /// Capacity events.  NODEDOWN requires the nodes to be free: the
  /// mirrored scheduler evicts victims first (FAIL events), exactly the
  /// batch simulator's order.
  void node_down(int nodes, Seconds t);
  void node_up(int nodes, Seconds t);

  // --- Queries (do not advance time). ----------------------------------

  /// Expected wait of queued job `id` from the current session time, via
  /// shadow simulation with every estimate refreshed by the predictor.
  /// The first query after a job's submission is recorded and scored
  /// against the actual wait when the job starts (error_stats()).
  Seconds estimate_wait(JobId id);

  /// Expected wait with the optimistic/pessimistic band of
  /// predict_wait_interval.
  WaitInterval estimate_interval(JobId id, double optimistic_scale = 0.5,
                                 double pessimistic_scale = 2.0);

  // --- Introspection. ---------------------------------------------------

  Seconds now() const { return now_; }
  /// Bumped by every applied (state-changing) event.
  std::uint64_t state_version() const { return version_; }
  const SystemState& state() const { return state_; }
  /// Mirrored policy / predictor names (the replication config fingerprint
  /// is built from these plus the machine size).
  std::string policy_name() const { return policy_.name(); }
  std::string predictor_name() const { return predictor_.name(); }
  const SessionCounters& counters() const { return counters_; }
  const SessionOptions& options() const { return options_; }

  /// Repair/rebuild counters of the shadow schedule.
  const ShadowCounters& shadow_counters() const { return shadow_.counters(); }

  /// Wait-prediction scoring, same accounting as WaitTimeObserver:
  /// |predicted - actual| wait, actual waits, signed error.
  const RunningStats& error_stats() const { return error_; }
  const RunningStats& wait_stats() const { return waits_; }
  const RunningStats& signed_error_stats() const { return signed_error_; }

  /// SimResult over everything observed so far (vectors indexed by JobId up
  /// to the largest id seen).  On a full clean replay this is bit-for-bit
  /// the batch simulate() result.
  SimResult result() const;

  // --- Durability (service/journal.hpp). --------------------------------

  /// Write the deterministic session state as a text snapshot: clock,
  /// version, every job record, retired id ranges, queue/running order,
  /// registered predictions, accumulated statistics (exact double bit
  /// patterns), and the ordered completion history the predictor was fed.
  /// Query-side observability (queries, cache hit/miss counters, the
  /// shadow's bookings) is deliberately excluded: it resets on recovery.
  void serialize(std::ostream& out) const;

  /// Rebuild from serialize() output.  Must be called on a *fresh* session
  /// constructed with the same machine size, the same policy, and a
  /// predictor in its construction-time state; the completion history is
  /// replayed into the predictor so subsequent estimates are bit-identical
  /// to the serialized session's.  Throws rtp::Error on a malformed
  /// snapshot or a configuration mismatch (nodes / policy / predictor
  /// name), leaving the session unusable only on a throw mid-restore into
  /// an already-fresh session.
  void restore(std::istream& in);

  /// Whether a job's first estimate registers a submit-time prediction for
  /// wait-error scoring (the default).  A replication follower serves
  /// estimates read-only: registration is disabled so its serialized state
  /// stays byte-identical to the primary's (which replicates its own
  /// registrations as P records), and re-enabled on promotion.
  void set_record_predictions(bool record) { record_predictions_ = record; }
  bool record_predictions() const { return record_predictions_; }

  /// Registered-but-unscored submit-time predictions (journal P records).
  std::size_t recorded_predictions() const { return predicted_wait_.size(); }

  /// The registered prediction for `id`, or kNoTime when none is recorded.
  Seconds recorded_prediction(JobId id) const;

  /// Re-register a submit-time prediction during journal recovery without
  /// re-running the shadow simulation (and without touching query
  /// counters).  Throws if the job is unknown or has already started.
  void restore_prediction(JobId id, Seconds wait);

 private:
  struct JobRecord {
    std::unique_ptr<Job> job;       // stable address: SystemState keeps Job*
    Seconds submit = 0.0;           // trace submission (first SUBMIT)
    Seconds first_start = kNoTime;
    Seconds attempt_start = kNoTime;
    int attempts = 0;
    bool queued = false;
    bool running = false;
    bool finished = false;
    bool canceled = false;
  };

  /// Advance the clock; throws on regression, leaving state untouched.
  void advance_time(Seconds t);
  void bump_version();
  JobRecord& known(JobId id);
  /// Drop the JobRecord of a canceled never-started job, remembering its id
  /// in the coalesced retired ranges so a duplicate SUBMIT is still
  /// rejected.  Keeps jobs_ and every snapshot bounded by the *live* and
  /// *completed* job count instead of growing with cancellation churn.
  void retire_record(JobId id);
  bool is_retired(JobId id) const;

  SessionOptions options_;
  const SchedulerPolicy& policy_;
  RuntimeEstimator& predictor_;
  bool record_predictions_ = true;
  SystemState state_;
  Seconds now_ = 0.0;
  bool saw_event_ = false;           // first event pins first_submit_
  Seconds first_submit_ = 0.0;
  Seconds last_completion_ = 0.0;
  std::uint64_t version_ = 0;

  std::unordered_map<JobId, JobRecord> jobs_;
  JobId max_id_seen_ = 0;
  bool any_job_seen_ = false;
  /// Ids of retired (canceled, never-started) jobs as coalesced inclusive
  /// ranges lo -> hi; their records are pruned from jobs_.
  std::map<JobId, JobId> retired_;

  /// Answers every wait query; mirrors each applied event.
  ShadowSchedule shadow_;

  // Wait-prediction scoring (first estimate after each submission).
  std::unordered_map<JobId, Seconds> predicted_wait_;
  RunningStats error_;
  RunningStats waits_;
  RunningStats signed_error_;

  // Predictor feed history in exact arrival order, so restore() can replay
  // it into a fresh predictor (grows with completed jobs, like jobs_).
  std::vector<std::pair<JobId, Seconds>> completions_;

  // SimResult accumulation.
  SessionCounters counters_;
  std::size_t completed_ = 0;
  std::size_t failures_ = 0;
  std::size_t retries_ = 0;
  std::size_t attempts_started_ = 0;
  std::size_t node_outages_ = 0;
  double total_work_ = 0.0;
  double wasted_work_ = 0.0;
};

}  // namespace rtp
