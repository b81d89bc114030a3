// Queue wait-time prediction (paper §3).
//
// At every job submission the live scheduler state is mirrored into a
// ShadowSchedule (sched/shadow.hpp), every job's run time is (re-)predicted
// with the predictor under test, and the scheduling policy is replayed
// forward on the mirror ("shadow simulation") until the new job starts.
// The replayed start time is the predicted wait; it is compared against
// the job's actual start in the live simulation.  The online service
// answers its queries with the same ShadowSchedule, so the two cannot
// drift.
//
// As in the paper, the *live* scheduler runs on user-supplied maximum run
// times (the EASY convention) regardless of which predictor is being
// evaluated for wait-time prediction; only the shadow simulation uses the
// predictor under test.  The predictor under test learns from completions
// in live order, exactly as it would online.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>

#include "sched/estimator.hpp"
#include "sched/policy.hpp"
#include "sched/shadow.hpp"
#include "sim/simulator.hpp"
#include "stats/summary.hpp"
#include "workload/workload.hpp"

namespace rtp {

/// Observer implementing the shadow-simulation wait-time predictor.  Usable
/// directly for custom experiments; run_wait_prediction wires it up for the
/// paper's tables.
class WaitTimeObserver final : public SimObserver {
 public:
  /// `policy` is the same policy the live simulation runs; `predictor` is
  /// the run-time predictor under test.  Neither is owned.
  WaitTimeObserver(const SchedulerPolicy& policy, RuntimeEstimator& predictor);

  void on_submit(Seconds now, const SystemState& state, const Job& job) override;
  void on_start(const Job& job, Seconds start) override;
  void on_finish(const Job& job, Seconds end) override;

  /// |predicted wait - actual wait| over all started jobs (seconds).
  const RunningStats& error_stats() const { return error_; }
  /// Actual waits of the same jobs (seconds).
  const RunningStats& wait_stats() const { return waits_; }
  /// Signed predicted-minus-actual (bias diagnostics).
  const RunningStats& signed_error_stats() const { return signed_error_; }

 private:
  RuntimeEstimator& predictor_;
  ShadowSchedule shadow_;
  std::unordered_map<JobId, Seconds> predicted_wait_;
  RunningStats error_;
  RunningStats waits_;
  RunningStats signed_error_;
};

struct WaitPredictionResult {
  std::string workload_name;
  std::string policy_name;
  std::string predictor_name;

  double mean_error_minutes = 0.0;    // mean |predicted - actual| wait
  double mean_wait_minutes = 0.0;     // mean actual wait
  double percent_of_mean_wait = 0.0;  // 100 * error / wait
  double mean_signed_error_minutes = 0.0;
  std::size_t jobs = 0;

  /// The underlying scheduling result (live sim on max run times).
  SimResult sim;
};

/// Run the paper's wait-time prediction experiment for one workload /
/// policy / predictor triple.  `scheduler_estimator` drives the live
/// scheduler; pass nullptr for the paper's default (maximum run times).
WaitPredictionResult run_wait_prediction(const Workload& workload, PolicyKind policy,
                                         RuntimeEstimator& predictor,
                                         RuntimeEstimator* scheduler_estimator = nullptr);

/// A wait-time prediction with an uncertainty band, obtained by replaying
/// the shadow simulation three times: once at the point estimates, once
/// with every run-time estimate scaled by `optimistic_scale` (jobs finish
/// early, the target starts sooner) and once by `pessimistic_scale`.
struct WaitInterval {
  Seconds expected = 0.0;
  Seconds optimistic = 0.0;   // lower bound on the wait
  Seconds pessimistic = 0.0;  // upper bound on the wait
};

/// Predict the wait of queued job `target` in `state` (whose estimates are
/// already filled in) with an uncertainty band.  Scales must satisfy
/// 0 < optimistic_scale <= 1 <= pessimistic_scale.
WaitInterval predict_wait_interval(const SystemState& state, const SchedulerPolicy& policy,
                                   Seconds now, JobId target,
                                   double optimistic_scale = 0.5,
                                   double pessimistic_scale = 2.0);

/// predict_wait_interval with the point estimate supplied by the caller —
/// the shadow schedule already has it as a booking, so only the two scaled
/// replays run.  `expected_wait` must be the wait
/// predict_start_time would produce over `state` (the band is clamped
/// around it).
WaitInterval predict_wait_interval_at(const SystemState& state,
                                      const SchedulerPolicy& policy, Seconds now,
                                      JobId target, Seconds expected_wait,
                                      double optimistic_scale, double pessimistic_scale);

}  // namespace rtp
