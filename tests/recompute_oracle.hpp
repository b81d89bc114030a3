// The recompute-per-query wait prediction, kept as the tests' oracle for
// ShadowSchedule: copy the live state, refresh every estimate with the
// predictor, and replay the policy from scratch (paper §3, literally).
// ShadowSchedule must answer bit for bit what these helpers compute.
#pragma once

#include <cmath>
#include <unordered_map>

#include "core/error.hpp"
#include "sched/forward_sim.hpp"
#include "sched/shadow.hpp"
#include "service/protocol.hpp"
#include "service/session.hpp"
#include "sim/simulator.hpp"
#include "stats/summary.hpp"
#include "waitpred/waitpred.hpp"

namespace rtp {

/// A copy of `live` with every estimate refreshed by `predictor` at `now`.
inline SystemState recompute_state(const SystemState& live, RuntimeEstimator& predictor,
                                   Seconds now) {
  SystemState copy = live;
  reestimate_all(copy, predictor, now);
  return copy;
}

/// Expected wait of queued job `id` in `session`, recomputed from scratch.
/// `policy` and `predictor` must be the ones the session mirrors.
inline Seconds recompute_wait(const OnlineSession& session, const SchedulerPolicy& policy,
                              RuntimeEstimator& predictor, JobId id) {
  const Seconds now = session.now();
  return predict_start_time(recompute_state(session.state(), predictor, now), policy, now,
                            id) -
         now;
}

/// The uncertainty band of estimate_interval, recomputed from scratch.
inline WaitInterval recompute_interval(const OnlineSession& session,
                                       const SchedulerPolicy& policy,
                                       RuntimeEstimator& predictor, JobId id,
                                       double optimistic_scale = 0.5,
                                       double pessimistic_scale = 2.0) {
  const Seconds now = session.now();
  return predict_wait_interval(recompute_state(session.state(), predictor, now), policy, now,
                               id, optimistic_scale, pessimistic_scale);
}

/// WaitTimeObserver's accounting over the recompute path.
class RecomputeObserver final : public SimObserver {
 public:
  RecomputeObserver(const SchedulerPolicy& policy, RuntimeEstimator& predictor)
      : policy_(policy), predictor_(predictor) {}

  void on_submit(Seconds now, const SystemState& state, const Job& job) override {
    const Seconds start =
        predict_start_time(recompute_state(state, predictor_, now), policy_, now, job.id);
    predicted_wait_.emplace(job.id, start - now);
  }
  void on_start(const Job& job, Seconds start) override {
    const auto it = predicted_wait_.find(job.id);
    if (it == predicted_wait_.end()) return;
    const Seconds actual_wait = start - job.submit;
    error_.add(std::fabs(it->second - actual_wait));
    signed_error_.add(it->second - actual_wait);
    waits_.add(actual_wait);
    predicted_wait_.erase(it);
  }
  void on_finish(const Job& job, Seconds end) override { predictor_.job_completed(job, end); }

  const RunningStats& error_stats() const { return error_; }
  const RunningStats& wait_stats() const { return waits_; }
  const RunningStats& signed_error_stats() const { return signed_error_; }

 private:
  const SchedulerPolicy& policy_;
  RuntimeEstimator& predictor_;
  std::unordered_map<JobId, Seconds> predicted_wait_;
  RunningStats error_;
  RunningStats waits_;
  RunningStats signed_error_;
};

/// Apply one recorded event request to `session`.
inline void apply_event(OnlineSession& session, const Request& r) {
  switch (r.kind) {
    case RequestKind::Submit: session.submit(r.job, r.time); return;
    case RequestKind::Start: session.start(r.id, r.time); return;
    case RequestKind::Finish: session.finish(r.id, r.time); return;
    case RequestKind::Cancel: session.cancel(r.id, r.time); return;
    case RequestKind::Fail: session.fail(r.id, r.time); return;
    case RequestKind::NodeDown: session.node_down(r.nodes, r.time); return;
    case RequestKind::NodeUp: session.node_up(r.nodes, r.time); return;
    default: throw Error("not an event request: " + format_request(r));
  }
}

}  // namespace rtp
