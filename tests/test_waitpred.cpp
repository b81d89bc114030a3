#include "waitpred/waitpred.hpp"

#include <gtest/gtest.h>

#include <bit>

#include "predict/factory.hpp"
#include "predict/simple.hpp"
#include "workload/synthetic.hpp"
#include "recompute_oracle.hpp"

namespace rtp {
namespace {

Workload serial_chain() {
  FieldMask fields;
  fields.set(Characteristic::User).set(Characteristic::Nodes);
  Workload w("chain", 1, fields);
  for (int i = 0; i < 5; ++i) {
    Job j;
    j.submit = 10.0 * i;
    j.runtime = 100.0;
    j.nodes = 1;
    j.user = "u";
    j.max_runtime = 200.0;
    w.add_job(std::move(j));
  }
  return w;
}

class FcfsOracleZeroError : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FcfsOracleZeroError, Property) {
  // The paper: "No data is shown for the FCFS algorithm because there is no
  // error when computing wait-time predictors in this case" — with oracle
  // run times AND an oracle-driven live scheduler, FCFS wait predictions at
  // submit time are exact, because later arrivals cannot affect earlier
  // jobs.  (Note the live scheduler must also use actual run times here:
  // FCFS ignores estimates, so this holds for any live estimator.)
  SyntheticConfig config = anl_config(0.015);
  config.seed = GetParam();
  const Workload w = generate_synthetic(config);
  ActualRuntimePredictor predictor;
  ActualRuntimePredictor scheduler_oracle;
  const WaitPredictionResult r =
      run_wait_prediction(w, PolicyKind::Fcfs, predictor, &scheduler_oracle);
  // The shadow replay floors a running job's remaining time at one second,
  // so per-job errors up to ~1 s are inherent; anything more means a bug.
  EXPECT_NEAR(r.mean_error_minutes, 0.0, to_minutes(1.5));
  EXPECT_EQ(r.jobs, w.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FcfsOracleZeroError, ::testing::Values(11u, 22u, 33u, 44u));

TEST(WaitPred, SerialChainExactUnderOracle) {
  const Workload w = serial_chain();
  ActualRuntimePredictor predictor, sched;
  const WaitPredictionResult r =
      run_wait_prediction(w, PolicyKind::Fcfs, predictor, &sched);
  EXPECT_NEAR(r.mean_error_minutes, 0.0, 1e-9);
  // Actual waits: 0, 90, 180, 270, 360 seconds.
  EXPECT_NEAR(r.mean_wait_minutes, to_minutes((0 + 90 + 180 + 270 + 360) / 5.0), 1e-9);
}

TEST(WaitPred, LwfOvertakingCreatesError) {
  // A long job arrives first, a short one later: LWF lets the short job
  // overtake, so the long job's predicted wait (made before the short job
  // existed) is wrong.
  FieldMask fields;
  fields.set(Characteristic::User).set(Characteristic::Nodes);
  Workload w("overtake", 1, fields);
  Job blocker;
  blocker.submit = 0;
  blocker.runtime = 100;
  blocker.nodes = 1;
  blocker.user = "u";
  w.add_job(std::move(blocker));
  Job target;  // waits behind blocker
  target.submit = 1;
  target.runtime = 1000;
  target.nodes = 1;
  target.user = "u";
  w.add_job(std::move(target));
  Job sneaky;  // arrives later, less work, overtakes the target
  sneaky.submit = 2;
  sneaky.runtime = 10;
  sneaky.nodes = 1;
  sneaky.user = "u";
  w.add_job(std::move(sneaky));

  ActualRuntimePredictor predictor, sched;
  const WaitPredictionResult r = run_wait_prediction(w, PolicyKind::Lwf, predictor, &sched);
  // The target predicted start 100, actually starts 110 (after sneaky).
  EXPECT_GT(r.mean_error_minutes, 0.0);
}

TEST(WaitPred, BadPredictorGivesWorseWaitPredictions) {
  const Workload w = generate_synthetic(anl_config(0.03));
  ActualRuntimePredictor oracle;
  const WaitPredictionResult good = run_wait_prediction(w, PolicyKind::Fcfs, oracle);
  ConstantPredictor wild(hours(24));
  const WaitPredictionResult bad = run_wait_prediction(w, PolicyKind::Fcfs, wild);
  EXPECT_LT(good.mean_error_minutes, bad.mean_error_minutes);
}

TEST(WaitPred, ReportsPercentOfMeanWait) {
  const Workload w = generate_synthetic(anl_config(0.03));
  MaxRuntimePredictor max_rt(w);
  const WaitPredictionResult r = run_wait_prediction(w, PolicyKind::Lwf, max_rt);
  if (r.mean_wait_minutes > 0.0) {
    EXPECT_NEAR(r.percent_of_mean_wait,
                100.0 * r.mean_error_minutes / r.mean_wait_minutes, 1e-9);
  }
}

TEST(WaitPred, DefaultLiveSchedulerIsMaxRuntimes) {
  // Smoke check of the paper's setup: passing no scheduler estimator uses
  // maximum run times for the live scheduler.
  const Workload w = generate_synthetic(anl_config(0.02));
  ActualRuntimePredictor oracle;
  const WaitPredictionResult r =
      run_wait_prediction(w, PolicyKind::BackfillConservative, oracle);
  EXPECT_EQ(r.sim.estimator_name, "max-runtime");
  EXPECT_EQ(r.predictor_name, "actual");
  EXPECT_EQ(r.policy_name, "Backfill");
}

TEST(WaitPred, ObserverStatsCoverEveryJob) {
  const Workload w = generate_synthetic(sdsc95_config(0.01));
  auto policy = make_policy(PolicyKind::Lwf);
  ActualRuntimePredictor predictor;
  MaxRuntimePredictor sched(w);
  WaitTimeObserver observer(*policy, predictor);
  simulate(w, *policy, sched, &observer);
  EXPECT_EQ(observer.error_stats().count(), w.size());
  EXPECT_EQ(observer.wait_stats().count(), w.size());
}

TEST(WaitPred, ObserverMatchesRecomputeUnderEveryPolicy) {
  // Tables 4-9 never run EASY, whose shadow replays the whole queue; every
  // policy must still score exactly what the recompute oracle scores.
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const Workload w = generate_synthetic(anl_config(0.03));
  for (const PolicyKind policy_kind :
       {PolicyKind::Fcfs, PolicyKind::Lwf, PolicyKind::BackfillConservative,
        PolicyKind::BackfillEasy}) {
    for (const PredictorKind predictor_kind : {PredictorKind::Stf, PredictorKind::Gibbons}) {
      const auto policy = make_policy(policy_kind);
      SCOPED_TRACE(policy->name() + " / " + to_string(predictor_kind));
      auto predictor = make_runtime_estimator(predictor_kind, w);
      WaitTimeObserver observer(*policy, *predictor);
      MaxRuntimePredictor live(w);
      simulate(w, *policy, live, &observer);

      auto oracle_predictor = make_runtime_estimator(predictor_kind, w);
      RecomputeObserver oracle(*policy, *oracle_predictor);
      MaxRuntimePredictor oracle_live(w);
      simulate(w, *policy, oracle_live, &oracle);

      EXPECT_EQ(observer.error_stats().count(), w.size());
      EXPECT_EQ(observer.error_stats().count(), oracle.error_stats().count());
      EXPECT_EQ(bits(observer.error_stats().sum()), bits(oracle.error_stats().sum()));
      EXPECT_EQ(bits(observer.error_stats().mean()), bits(oracle.error_stats().mean()));
      EXPECT_EQ(bits(observer.error_stats().max()), bits(oracle.error_stats().max()));
      EXPECT_EQ(bits(observer.signed_error_stats().sum()),
                bits(oracle.signed_error_stats().sum()));
      EXPECT_EQ(bits(observer.signed_error_stats().mean()),
                bits(oracle.signed_error_stats().mean()));
      EXPECT_EQ(bits(observer.signed_error_stats().min()),
                bits(oracle.signed_error_stats().min()));
      EXPECT_EQ(bits(observer.wait_stats().mean()), bits(oracle.wait_stats().mean()));
    }
  }
}

}  // namespace
}  // namespace rtp
