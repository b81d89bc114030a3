#include "waitpred/waitpred.hpp"

#include <cmath>

#include "core/error.hpp"
#include "predict/simple.hpp"
#include "sched/forward_sim.hpp"

namespace rtp {

// The shadow's machine size is a placeholder: reset() replaces its mirror
// with the live state, machine size included, before every query.
WaitTimeObserver::WaitTimeObserver(const SchedulerPolicy& policy, RuntimeEstimator& predictor)
    : predictor_(predictor), shadow_(1, policy, predictor) {}

void WaitTimeObserver::on_submit(Seconds now, const SystemState& state, const Job& job) {
  // Mirror the live state; the shadow re-estimates every job with the
  // predictor under test and replays the policy up to the new job.
  shadow_.reset(state);
  predicted_wait_.emplace(job.id, shadow_.predicted_start(now, job.id) - now);
}

void WaitTimeObserver::on_start(const Job& job, Seconds start) {
  auto it = predicted_wait_.find(job.id);
  if (it == predicted_wait_.end()) return;  // job predates observer attachment
  const Seconds actual_wait = start - job.submit;
  error_.add(std::fabs(it->second - actual_wait));
  signed_error_.add(it->second - actual_wait);
  waits_.add(actual_wait);
  predicted_wait_.erase(it);
}

void WaitTimeObserver::on_finish(const Job& job, Seconds end) {
  predictor_.job_completed(job, end);
}

WaitInterval predict_wait_interval_at(const SystemState& state,
                                      const SchedulerPolicy& policy, Seconds now,
                                      JobId target, Seconds expected_wait,
                                      double optimistic_scale, double pessimistic_scale) {
  RTP_CHECK(optimistic_scale > 0.0 && optimistic_scale <= 1.0,
            "optimistic_scale must be in (0, 1]");
  RTP_CHECK(pessimistic_scale >= 1.0, "pessimistic_scale must be >= 1");

  auto scaled = [&](double factor) {
    SystemState copy = state;
    for (SchedJob& sj : copy.mutable_queue())
      if (sj.id() != target) sj.estimate *= factor;
    for (SchedJob& sj : copy.mutable_running()) {
      // Scale the *remaining* time, never below what has already elapsed.
      const Seconds age = sj.age(now);
      sj.estimate = age + std::max<Seconds>(1.0, (sj.estimate - age) * factor);
    }
    return predict_start_time(copy, policy, now, target) - now;
  };

  WaitInterval interval;
  interval.expected = expected_wait;
  interval.optimistic = scaled(optimistic_scale);
  interval.pessimistic = scaled(pessimistic_scale);
  // Scheduling is not monotone in the estimates (backfill can invert), so
  // enforce the band ordering defensively.
  interval.optimistic = std::min(interval.optimistic, interval.expected);
  interval.pessimistic = std::max(interval.pessimistic, interval.expected);
  return interval;
}

WaitInterval predict_wait_interval(const SystemState& state, const SchedulerPolicy& policy,
                                   Seconds now, JobId target, double optimistic_scale,
                                   double pessimistic_scale) {
  return predict_wait_interval_at(state, policy, now, target,
                                  predict_start_time(state, policy, now, target) - now,
                                  optimistic_scale, pessimistic_scale);
}

WaitPredictionResult run_wait_prediction(const Workload& workload, PolicyKind policy,
                                         RuntimeEstimator& predictor,
                                         RuntimeEstimator* scheduler_estimator) {
  auto policy_impl = make_policy(policy);

  // The live scheduler runs on maximum run times unless told otherwise.
  std::unique_ptr<RuntimeEstimator> default_sched_est;
  if (scheduler_estimator == nullptr) {
    default_sched_est = std::make_unique<MaxRuntimePredictor>(workload);
    scheduler_estimator = default_sched_est.get();
  }

  WaitTimeObserver observer(*policy_impl, predictor);
  SimResult sim = simulate(workload, *policy_impl, *scheduler_estimator, &observer);

  WaitPredictionResult result;
  result.workload_name = workload.name();
  result.policy_name = policy_impl->name();
  result.predictor_name = predictor.name();
  result.mean_error_minutes = to_minutes(observer.error_stats().mean());
  result.mean_wait_minutes = to_minutes(observer.wait_stats().mean());
  result.mean_signed_error_minutes = to_minutes(observer.signed_error_stats().mean());
  result.jobs = observer.error_stats().count();
  result.percent_of_mean_wait =
      result.mean_wait_minutes > 0.0
          ? 100.0 * result.mean_error_minutes / result.mean_wait_minutes
          : 0.0;
  result.sim = std::move(sim);
  return result;
}

}  // namespace rtp
