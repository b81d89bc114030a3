// Incremental shadow schedule: bit-identity with the fresh-replay oracle,
// repair-vs-rebuild accounting, profile compaction, and the EASY fallback.
#include "sched/shadow.hpp"

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "sched/forward_sim.hpp"
#include "sched/policy.hpp"

namespace rtp {
namespace {

/// Stateless but job- and age-dependent: every refresh path must reproduce
/// these exact bits, and running-job estimates move with the clock.
class ShapedPredictor final : public RuntimeEstimator {
 public:
  Seconds estimate(const Job& job, Seconds age) override {
    return std::max<Seconds>(age + 1.0,
                             0.75 * job.runtime + 7.0 * job.nodes + 0.25 * age);
  }
  std::string name() const override { return "shaped"; }
};

std::uint64_t bits(Seconds s) { return std::bit_cast<std::uint64_t>(s); }

/// Drives a live SystemState and a ShadowSchedule through the same events
/// and checks every queued job's predicted start against the recompute oracle
/// (fresh copy + reestimate_all + predict_start_time) after each step.
class Driver {
 public:
  Driver(int nodes, PolicyKind kind)
      : policy_(make_policy(kind)), state_(nodes),
        shadow_(nodes, *policy_, predictor_) {}

  const Job& submit(JobId id, int job_nodes, Seconds runtime) {
    auto job = std::make_unique<Job>();
    job->id = id;
    job->nodes = job_nodes;
    job->runtime = runtime;
    job->submit = now_;
    const Job& stable = *job;
    jobs_.push_back(std::move(job));
    state_.enqueue(stable, now_, 0.0);
    shadow_.on_submit(stable, now_);
    return stable;
  }

  void start(JobId id) {
    state_.start_job(id, now_);
    shadow_.on_start(id, now_);
  }

  void finish(JobId id) {
    state_.finish_job(id);
    shadow_.on_finish(id);
  }

  void cancel(JobId id) {
    auto& queue = state_.mutable_queue();
    for (auto it = queue.begin(); it != queue.end(); ++it)
      if (it->id() == id) {
        queue.erase(it);
        break;
      }
    shadow_.on_cancel(id, now_);
  }

  void fail(JobId id) {
    const Job& job = *state_.find_running(id)->job;
    state_.finish_job(id);
    state_.enqueue(job, now_, 0.0);
    shadow_.on_fail(id, now_);
  }

  void node_down(int n) {
    state_.take_nodes_down(n);
    shadow_.on_node_down(n);
  }

  void node_up(int n) {
    state_.bring_nodes_up(n);
    shadow_.on_node_up(n);
  }

  void advance(Seconds dt) { now_ += dt; }
  Seconds now() const { return now_; }
  ShadowSchedule& shadow() { return shadow_; }
  const SystemState& state() const { return state_; }

  /// Every queued job's incremental answer must match the oracle's bits.
  void check_all_queued() {
    for (const SchedJob& sj : state_.queue()) {
      SystemState oracle = state_;
      reestimate_all(oracle, predictor_, now_);
      const Seconds expected = predict_start_time(oracle, *policy_, now_, sj.id());
      const Seconds actual = shadow_.predicted_start(now_, sj.id());
      EXPECT_EQ(bits(actual), bits(expected))
          << "job " << sj.id() << " at t=" << now_ << ": incremental "
          << actual << " vs oracle " << expected;
    }
  }

 private:
  ShapedPredictor predictor_;
  std::unique_ptr<SchedulerPolicy> policy_;
  SystemState state_;
  ShadowSchedule shadow_;
  std::vector<std::unique_ptr<Job>> jobs_;
  Seconds now_ = 0.0;
};

class ShadowBitIdentity : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(ShadowBitIdentity, MatchesFreshReplayAcrossAllEventKinds) {
  Driver d(16, GetParam());

  // Same-timestamp submit burst (the repair path for single-pass policies).
  d.submit(0, 8, 3000.0);
  d.check_all_queued();
  d.submit(1, 8, 500.0);
  d.submit(2, 4, 4000.0);
  d.check_all_queued();

  d.start(0);
  d.check_all_queued();

  d.advance(100.0);
  d.submit(3, 12, 700.0);  // wider than what's free while 0 runs
  d.submit(4, 2, 2500.0);
  d.check_all_queued();

  // Cancel in the middle of the booked order, same timestamp as the burst.
  d.cancel(2);
  d.check_all_queued();

  d.advance(50.0);
  d.start(1);
  d.check_all_queued();

  d.fail(1);  // attempt dies, job returns to the queue tail
  d.check_all_queued();

  d.advance(200.0);
  d.finish(0);
  d.check_all_queued();

  d.node_down(4);
  d.check_all_queued();

  d.advance(25.0);
  d.node_up(4);
  d.check_all_queued();

  // A job too wide for the derated machine books kTimeInfinity on the
  // single-pass policies; the oracle must agree.
  d.node_down(8);
  d.submit(5, 12, 900.0);
  d.check_all_queued();
  d.node_up(8);
  d.check_all_queued();
}

INSTANTIATE_TEST_SUITE_P(Policies, ShadowBitIdentity,
                         ::testing::Values(PolicyKind::Fcfs, PolicyKind::Lwf,
                                           PolicyKind::BackfillConservative,
                                           PolicyKind::BackfillEasy));

TEST(ShadowCountersTest, SameClockEventsRepairAndOthersRebuild) {
  Driver d(16, PolicyKind::Fcfs);
  d.submit(0, 4, 1000.0);
  d.submit(1, 4, 2000.0);
  d.check_all_queued();  // first query builds the base
  EXPECT_EQ(d.shadow().counters().rebuilds, 1u);
  EXPECT_EQ(d.shadow().counters().repairs, 0u);

  // Submit and cancel at the unchanged clock: suffix repairs, no rebuild.
  d.submit(2, 8, 500.0);
  d.check_all_queued();
  EXPECT_EQ(d.shadow().counters().rebuilds, 1u);
  EXPECT_EQ(d.shadow().counters().repairs, 1u);
  d.cancel(1);
  d.check_all_queued();
  EXPECT_EQ(d.shadow().counters().rebuilds, 1u);
  EXPECT_EQ(d.shadow().counters().repairs, 2u);

  // Repeated queries between events reuse existing bookings.
  const std::uint64_t reused = d.shadow().counters().reused;
  d.shadow().predicted_start(d.now(), 0);
  d.shadow().predicted_start(d.now(), 0);
  EXPECT_EQ(d.shadow().counters().reused, reused + 2);

  // The clock moving (a later submit) forces a rebuild: running-job spans
  // and age-dependent estimates shift in float ulps with `now`.
  d.advance(10.0);
  d.submit(3, 2, 300.0);
  d.check_all_queued();
  EXPECT_EQ(d.shadow().counters().rebuilds, 2u);

  // A start changes the running set: rebuild, not repair.
  d.start(0);
  d.check_all_queued();
  EXPECT_EQ(d.shadow().counters().rebuilds, 3u);
  EXPECT_EQ(d.shadow().counters().repairs, 2u);
}

TEST(ShadowCountersTest, LwfSameClockInsertionRepairs) {
  Driver d(16, PolicyKind::Lwf);
  // Equal-work ties: the repair's upper_bound insertion must land exactly
  // where booking_order's stable sort puts the newest arrival.
  d.submit(0, 2, 1000.0);
  d.submit(1, 4, 500.0);  // same work product shape exercised below
  d.check_all_queued();
  EXPECT_EQ(d.shadow().counters().rebuilds, 1u);
  d.submit(2, 2, 1000.0);  // ties with job 0's work
  d.submit(3, 1, 100.0);   // least work: inserts at the front
  d.check_all_queued();
  EXPECT_EQ(d.shadow().counters().rebuilds, 1u);
  EXPECT_EQ(d.shadow().counters().repairs, 2u);
}

TEST(ShadowProfileTest, ReleaseRebookChurnStaysCompact) {
  Driver d(8, PolicyKind::Fcfs);
  d.submit(0, 8, 10000.0);
  d.start(0);
  JobId next = 1;
  for (int i = 0; i < 300; ++i) {
    d.submit(next, 1 + (i % 8), 100.0 + 10.0 * (i % 13));
    d.check_all_queued();
    if (i % 3 != 0) d.cancel(next);
    d.check_all_queued();
    // repairable() forces a compacting rebuild past the garbage bound, so
    // the profile can never grow past it by more than one event's worth.
    const std::size_t jobs_in_system =
        d.state().queue().size() + d.state().running().size();
    EXPECT_LE(d.shadow().profile_breakpoints(), 4 * jobs_in_system + 64 + 4)
        << "iteration " << i;
    ++next;
  }
  EXPECT_GT(d.shadow().counters().repairs, 0u);
}

TEST(ShadowEasyTest, FallbackCachesOneReplayPerState) {
  Driver d(16, PolicyKind::BackfillEasy);
  d.submit(0, 16, 1000.0);
  d.start(0);
  d.submit(1, 4, 500.0);
  d.submit(2, 8, 800.0);

  d.shadow().predicted_start(d.now(), 1);
  d.shadow().predicted_start(d.now(), 2);
  d.shadow().predicted_start(d.now(), 1);
  EXPECT_EQ(d.shadow().counters().easy_replays, 1u)
      << "queries between events must share one full replay";
  EXPECT_EQ(d.shadow().counters().reused, 2u);

  d.advance(10.0);
  d.submit(3, 2, 100.0);
  d.shadow().predicted_start(d.now(), 3);
  EXPECT_EQ(d.shadow().counters().easy_replays, 2u);
  // EASY never builds the single-pass base.
  EXPECT_EQ(d.shadow().counters().rebuilds, 0u);
  EXPECT_EQ(d.shadow().counters().bookings, 0u);
}

}  // namespace
}  // namespace rtp
