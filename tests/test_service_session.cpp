// OnlineSession semantics: the keystone equivalence with the batch
// simulator, bit-identity with the recompute-per-query oracle, the
// booking-reuse counters, and event validation.
#include "service/session.hpp"

#include <bit>
#include <cstddef>
#include <sstream>

#include <gtest/gtest.h>

#include "predict/factory.hpp"
#include "predict/simple.hpp"
#include "sched/policy.hpp"
#include "service/replay.hpp"
#include "workload/synthetic.hpp"
#include "recompute_oracle.hpp"

namespace rtp {
namespace {

/// Every numeric field of two SimResults must match bit-for-bit: the
/// service is a new interface over the same semantics, not a fork.
void expect_sim_equal(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.goodput, b.goodput);
  EXPECT_EQ(a.mean_wait, b.mean_wait);
  EXPECT_EQ(a.median_wait, b.median_wait);
  EXPECT_EQ(a.max_wait, b.max_wait);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.start_times, b.start_times);
  EXPECT_EQ(a.waits, b.waits);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.attempts_started, b.attempts_started);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.node_outages, b.node_outages);
  EXPECT_EQ(a.wasted_work, b.wasted_work);
}

struct EquivCase {
  const char* label;
  SyntheticConfig config;
  PolicyKind policy;
  PredictorKind predictor;
};

std::vector<EquivCase> equivalence_cases() {
  return {
      {"anl-lwf-stf", anl_config(0.01), PolicyKind::Lwf, PredictorKind::Stf},
      {"ctc-backfill-stf", ctc_config(0.01), PolicyKind::BackfillConservative,
       PredictorKind::Stf},
      {"sdsc95-backfill-gibbons", sdsc95_config(0.01), PolicyKind::BackfillConservative,
       PredictorKind::Gibbons},
      {"sdsc96-lwf-downey", sdsc96_config(0.01), PolicyKind::Lwf,
       PredictorKind::DowneyAverage},
  };
}

class SessionEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SessionEquivalence, ReplayReproducesBatchBitForBit) {
  const EquivCase c = equivalence_cases()[GetParam()];
  SCOPED_TRACE(c.label);
  const Workload w = generate_synthetic(c.config);
  const auto policy = make_policy(c.policy);

  // Batch path: live scheduler on user maxima, predictor under test in the
  // shadow — the paper's Tables 4-9 harness.
  auto batch_predictor = make_runtime_estimator(c.predictor, w);
  const WaitPredictionResult batch = run_wait_prediction(w, c.policy, *batch_predictor);

  // Service path: record the live run as an event stream, feed it through
  // a session with a *fresh* predictor of the same kind, estimating every
  // job at submission.
  MaxRuntimePredictor live(w);
  const RecordedRun recorded = record_session_log(w, *policy, live);
  expect_sim_equal(recorded.batch, batch.sim);

  auto session_predictor = make_runtime_estimator(c.predictor, w);
  OnlineSession session(w.machine_nodes(), *policy, *session_predictor);
  replay_through_session(session, recorded.events);

  expect_sim_equal(session.result(), batch.sim);
  EXPECT_EQ(session.error_stats().count(), batch.jobs);
  EXPECT_EQ(to_minutes(session.error_stats().mean()), batch.mean_error_minutes);
  EXPECT_EQ(to_minutes(session.wait_stats().mean()), batch.mean_wait_minutes);
  EXPECT_EQ(to_minutes(session.signed_error_stats().mean()),
            batch.mean_signed_error_minutes);

  // Both paths above run ShadowSchedule; the recompute oracle must score
  // the same predictions.
  auto oracle_predictor = make_runtime_estimator(c.predictor, w);
  RecomputeObserver oracle(*policy, *oracle_predictor);
  MaxRuntimePredictor oracle_live(w);
  simulate(w, *policy, oracle_live, &oracle);
  EXPECT_EQ(session.error_stats().count(), oracle.error_stats().count());
  EXPECT_EQ(session.error_stats().mean(), oracle.error_stats().mean());
  EXPECT_EQ(session.signed_error_stats().mean(), oracle.signed_error_stats().mean());
}

INSTANTIATE_TEST_SUITE_P(Sites, SessionEquivalence, ::testing::Values(0u, 1u, 2u, 3u));

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Replays every paper site's recorded session (conservative backfill) with
/// repeat ESTIMATEs after each SUBMIT and checks every answer, plus every
/// seventh submission's INTERVAL, bit for bit against the recompute oracle.
void expect_replay_matches_recompute(PredictorKind kind) {
  constexpr int kRepeats = 3;
  const auto policy = make_policy(PolicyKind::BackfillConservative);
  for (const Workload& w : paper_workloads(0.02)) {
    SCOPED_TRACE(w.name());
    MaxRuntimePredictor live(w);
    const RecordedRun recorded = record_session_log(w, *policy, live);
    auto predictor = make_runtime_estimator(kind, w);
    OnlineSession session(w.machine_nodes(), *policy, *predictor);

    std::uint64_t submits = 0;
    std::uint64_t intervals = 0;
    for (const Request& ev : recorded.events) {
      apply_event(session, ev);
      if (ev.kind != RequestKind::Submit) continue;
      const Seconds expected = recompute_wait(session, *policy, *predictor, ev.id);
      for (int q = 0; q <= kRepeats; ++q)
        ASSERT_EQ(bits(session.estimate_wait(ev.id)), bits(expected))
            << "job " << ev.id << " query " << q;
      if (submits++ % 7 == 0) {
        const WaitInterval a = session.estimate_interval(ev.id);
        const WaitInterval b = recompute_interval(session, *policy, *predictor, ev.id);
        ASSERT_EQ(bits(a.expected), bits(b.expected)) << "job " << ev.id;
        ASSERT_EQ(bits(a.optimistic), bits(b.optimistic)) << "job " << ev.id;
        ASSERT_EQ(bits(a.pessimistic), bits(b.pessimistic)) << "job " << ev.id;
        ++intervals;
      }
    }
    // The first ESTIMATE after a SUBMIT books the new job; its repeats
    // reuse that booking.  Every INTERVAL runs its band replays.
    EXPECT_EQ(session.counters().cache_hits, kRepeats * submits);
    EXPECT_EQ(session.counters().cache_misses, submits + intervals);
  }
}

TEST(SessionReplayAnswers, MaxPredictorMatchesRecomputeAtEverySite) {
  expect_replay_matches_recompute(PredictorKind::MaxRuntime);
}

TEST(SessionReplayAnswers, StfPredictorMatchesRecomputeAtEverySite) {
  expect_replay_matches_recompute(PredictorKind::Stf);
}

TEST(SessionCache, RepeatedQueryHitsUntilStateChanges) {
  ConstantPredictor predictor(minutes(10));
  const auto policy = make_policy(PolicyKind::Fcfs);
  OnlineSession session(4, *policy, predictor);

  Job a;
  a.id = 0;
  a.nodes = 4;
  a.runtime = minutes(10);
  Job b = a;
  b.id = 1;
  session.submit(a, 0.0);
  session.start(0, 0.0);
  session.submit(b, 5.0);

  const std::uint64_t v = session.state_version();
  const Seconds first = session.estimate_wait(1);
  EXPECT_EQ(session.counters().cache_misses, 1u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(session.estimate_wait(1), first);
  EXPECT_EQ(session.counters().cache_hits, 5u);
  EXPECT_EQ(session.state_version(), v);  // queries do not advance state

  // A state-changing event invalidates: next query recomputes.
  session.finish(0, minutes(2));
  EXPECT_NE(session.state_version(), v);
  session.estimate_wait(1);
  EXPECT_EQ(session.counters().cache_misses, 2u);
}

TEST(SessionCache, IntervalReusesTheBookingButAlwaysReplaysTheBand) {
  ConstantPredictor predictor(minutes(10));
  const auto policy = make_policy(PolicyKind::Fcfs);
  OnlineSession session(4, *policy, predictor);

  Job a;
  a.id = 0;
  a.nodes = 4;
  a.runtime = minutes(10);
  Job b = a;
  b.id = 1;
  session.submit(a, 0.0);
  session.start(0, 0.0);
  session.submit(b, 0.0);

  const WaitInterval band = session.estimate_interval(1);
  EXPECT_LE(band.optimistic, band.expected);
  EXPECT_GE(band.pessimistic, band.expected);
  const WaitInterval oracle = recompute_interval(session, *policy, predictor, 1);
  EXPECT_EQ(bits(band.expected), bits(oracle.expected));
  EXPECT_EQ(bits(band.optimistic), bits(oracle.optimistic));
  EXPECT_EQ(bits(band.pessimistic), bits(oracle.pessimistic));
  EXPECT_EQ(session.counters().cache_misses, 1u);

  // The interval booked the job; a plain estimate now reuses that booking.
  EXPECT_EQ(session.estimate_wait(1), band.expected);
  EXPECT_EQ(session.counters().cache_hits, 1u);
  // An interval always runs its band replays, whatever the scales.
  session.estimate_interval(1);
  session.estimate_interval(1, 0.25, 4.0);
  EXPECT_EQ(session.counters().cache_hits, 1u);
  EXPECT_EQ(session.counters().cache_misses, 3u);
}

TEST(SessionChurn, CancelChurnKeepsSnapshotBounded) {
  ConstantPredictor predictor(minutes(10));
  const auto policy = make_policy(PolicyKind::Fcfs);
  OnlineSession session(8, *policy, predictor);

  // One long-running job pins the machine so every churned job waits.
  Job base;
  base.id = 0;
  base.nodes = 8;
  base.runtime = minutes(60);
  session.submit(base, 0.0);
  session.start(0, 0.0);

  const auto snapshot_size = [&] {
    std::ostringstream out;
    session.serialize(out);
    return out.str().size();
  };

  const auto churn = [&](JobId id) {
    Job j = base;
    j.id = id;
    j.nodes = 2;
    session.submit(j, 1.0);
    session.estimate_wait(id);  // registers a submit-time prediction...
    session.cancel(id, 1.0);    // ...which cancel must retire with the job
  };

  for (JobId id = 1; id <= 50; ++id) churn(id);
  const std::size_t size_at_50 = snapshot_size();
  for (JobId id = 51; id <= 400; ++id) churn(id);
  const std::size_t size_at_400 = snapshot_size();

  // A canceled never-started job leaves no record, no prediction, and only
  // a coalesced id range behind: the snapshot must not grow with churn
  // (a few bytes of slack cover wider counter digits).
  EXPECT_LE(size_at_400, size_at_50 + 32)
      << "snapshot grew from " << size_at_50 << " to " << size_at_400
      << " bytes under submit->estimate->cancel churn";
  EXPECT_EQ(session.recorded_predictions(), 0u);
  EXPECT_EQ(session.counters().canceled, 400u);

  std::ostringstream out;
  session.serialize(out);
  EXPECT_NE(out.str().find("retired 1\n"), std::string::npos)
      << "consecutive retired ids must coalesce into one range";
  EXPECT_NE(out.str().find("t 1 400\n"), std::string::npos);

  // Retired ids still reject duplicate submissions.
  Job dup = base;
  dup.id = 7;
  dup.nodes = 1;
  EXPECT_THROW(session.submit(dup, 2.0), Error);

  // The snapshot round-trips: retired ranges survive recovery.
  ConstantPredictor fresh_predictor(minutes(10));
  OnlineSession restored(8, *policy, fresh_predictor);
  std::istringstream in(out.str());
  restored.restore(in);
  EXPECT_THROW(restored.submit(dup, 2.0), Error);
  std::ostringstream out2;
  restored.serialize(out2);
  EXPECT_EQ(out.str(), out2.str());
}

TEST(SessionEvents, ValidationRejectsWithoutCorruptingState) {
  ConstantPredictor predictor(100.0);
  const auto policy = make_policy(PolicyKind::Fcfs);
  OnlineSession session(8, *policy, predictor);

  Job a;
  a.id = 0;
  a.nodes = 4;
  a.runtime = 50.0;
  session.submit(a, 10.0);

  EXPECT_THROW(session.finish(0, 11.0), Error);       // not running yet
  EXPECT_THROW(session.start(7, 11.0), Error);        // unknown id
  EXPECT_THROW(session.submit(a, 12.0), Error);       // duplicate id
  EXPECT_THROW(session.start(0, 5.0), Error);         // time went backwards
  EXPECT_THROW(session.node_down(9, 11.0), Error);    // more than free
  EXPECT_THROW(session.node_up(1, 11.0), Error);      // nothing is down

  // Nothing above mutated the session: the job is still queued and the
  // clock still sits at the submit time.
  EXPECT_EQ(session.now(), 10.0);
  EXPECT_EQ(session.state().queue().size(), 1u);
  EXPECT_EQ(session.state().free_nodes(), 8);

  session.start(0, 20.0);
  session.finish(0, 70.0);
  const SimResult r = session.result();
  EXPECT_EQ(r.completed, 1u);
  EXPECT_EQ(r.waits[0], 10.0);
}

TEST(SessionEvents, FailRequeuesAndNodeEventsTrackCapacity) {
  ConstantPredictor predictor(100.0);
  const auto policy = make_policy(PolicyKind::Fcfs);
  OnlineSession session(8, *policy, predictor);

  Job a;
  a.id = 0;
  a.nodes = 4;
  a.runtime = 50.0;
  session.submit(a, 0.0);
  session.start(0, 0.0);
  session.fail(0, 30.0);  // attempt dies; back in the queue
  EXPECT_EQ(session.state().queue().size(), 1u);
  EXPECT_EQ(session.state().free_nodes(), 8);

  session.node_down(4, 40.0);
  EXPECT_EQ(session.state().available_nodes(), 4);
  session.start(0, 50.0);
  session.finish(0, 100.0);
  session.node_up(4, 120.0);

  const SimResult r = session.result();
  EXPECT_EQ(r.failures, 1u);
  EXPECT_EQ(r.retries, 1u);
  EXPECT_EQ(r.node_outages, 1u);
  EXPECT_EQ(r.attempts[0], 2);
  EXPECT_EQ(r.wasted_work, 4.0 * 30.0);
  EXPECT_EQ(r.start_times[0], 0.0);  // first attempt pins the start time

  // Cancel path: a queued job can be withdrawn.
  Job b;
  b.id = 1;
  b.nodes = 2;
  b.runtime = 10.0;
  session.submit(b, 130.0);
  session.cancel(1, 131.0);
  EXPECT_TRUE(session.state().queue().empty());
  EXPECT_THROW(session.start(1, 132.0), Error);
}

}  // namespace
}  // namespace rtp
