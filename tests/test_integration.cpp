// Cross-module integration and property tests: invariants that must hold
// for any (workload, policy, predictor) combination.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>

#include "exp/experiments.hpp"
#include "predict/simple.hpp"
#include "predict/stf.hpp"
#include "sim/simulator.hpp"
#include "workload/synthetic.hpp"
#include "workload/transforms.hpp"

namespace rtp {
namespace {

struct Combo {
  const char* name;
  PolicyKind policy;
  PredictorKind predictor;
};

// gtest lists a parameter without a printer as its raw bytes, which would
// put a pointer that moves with ASLR into every listed name.
void PrintTo(const Combo& c, std::ostream* os) { *os << c.name; }

class ComboParam : public ::testing::TestWithParam<Combo> {};

/// Reconstruct node usage over time from start times and assert the
/// machine capacity is never exceeded — the fundamental space-sharing
/// invariant, checked end-to-end through the simulator.
TEST_P(ComboParam, CapacityNeverExceeded) {
  const Workload w = generate_synthetic(anl_config(0.02));
  auto policy = make_policy(GetParam().policy);
  auto estimator = make_runtime_estimator(GetParam().predictor, w);
  const SimResult r = simulate(w, *policy, *estimator);

  struct Edge {
    Seconds time;
    int delta;
  };
  std::vector<Edge> edges;
  edges.reserve(2 * w.size());
  for (const Job& j : w.jobs()) {
    ASSERT_GE(r.start_times[j.id], j.submit);
    edges.push_back({r.start_times[j.id], j.nodes});
    edges.push_back({r.start_times[j.id] + std::max(1.0, j.runtime), -j.nodes});
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.delta < b.delta;  // releases before acquisitions at ties
  });
  int in_use = 0;
  for (const Edge& e : edges) {
    in_use += e.delta;
    ASSERT_LE(in_use, w.machine_nodes());
    ASSERT_GE(in_use, 0);
  }
}

TEST_P(ComboParam, DeterministicAcrossRuns) {
  const Workload w = generate_synthetic(sdsc96_config(0.01));
  auto policy = make_policy(GetParam().policy);
  auto est1 = make_runtime_estimator(GetParam().predictor, w);
  auto est2 = make_runtime_estimator(GetParam().predictor, w);
  const SimResult a = simulate(w, *policy, *est1);
  const SimResult b = simulate(w, *policy, *est2);
  EXPECT_EQ(a.start_times, b.start_times);
  EXPECT_DOUBLE_EQ(a.utilization, b.utilization);
}

INSTANTIATE_TEST_SUITE_P(
    Combos, ComboParam,
    ::testing::Values(Combo{"fcfs_actual", PolicyKind::Fcfs, PredictorKind::Actual},
                      Combo{"lwf_actual", PolicyKind::Lwf, PredictorKind::Actual},
                      Combo{"lwf_stf", PolicyKind::Lwf, PredictorKind::Stf},
                      Combo{"bf_actual", PolicyKind::BackfillConservative,
                            PredictorKind::Actual},
                      Combo{"bf_max", PolicyKind::BackfillConservative,
                            PredictorKind::MaxRuntime},
                      Combo{"bf_stf", PolicyKind::BackfillConservative, PredictorKind::Stf},
                      Combo{"bf_gibbons", PolicyKind::BackfillConservative,
                            PredictorKind::Gibbons},
                      Combo{"bf_downey", PolicyKind::BackfillConservative,
                            PredictorKind::DowneyMedian},
                      Combo{"easy_stf", PolicyKind::BackfillEasy, PredictorKind::Stf}),
    [](const ::testing::TestParamInfo<Combo>& param_info) {
      return param_info.param.name;
    });

TEST(Integration, FcfsStartsInArrivalOrder) {
  const Workload w = generate_synthetic(ctc_config(0.01));
  FcfsPolicy fcfs;
  ActualRuntimePredictor oracle;
  const SimResult r = simulate(w, fcfs, oracle);
  for (std::size_t i = 1; i < w.size(); ++i)
    EXPECT_GE(r.start_times[i], r.start_times[i - 1]);
}

TEST(Integration, OracleWaitsNoWorseThanMaxForLwfOnAverage) {
  // Loose sanity on the paper's central claim at small scale: across the
  // four workloads, scheduling with oracle run times must not be
  // systematically worse than max run times for LWF.
  double oracle_total = 0.0, max_total = 0.0;
  for (const Workload& w : paper_workloads(0.05)) {
    LwfPolicy lwf;
    ActualRuntimePredictor oracle;
    MaxRuntimePredictor maxrt(w);
    oracle_total += simulate(w, lwf, oracle).mean_wait;
    max_total += simulate(w, lwf, maxrt).mean_wait;
  }
  EXPECT_LE(oracle_total, max_total * 1.3);
}

TEST(Integration, BootstrapEliminatesRampUpFallbacks) {
  const Workload w = generate_synthetic(anl_config(0.03));
  StfPredictor cold(default_template_set(w.fields(), true));
  StfPredictor warm(default_template_set(w.fields(), true));
  warm.bootstrap(std::span(w.jobs()).first(w.size() / 2));

  // The first job the cold predictor sees falls back (template -1); the
  // bootstrapped one should usually hit a real category.
  const Job& probe = w.job(w.size() / 2);
  EXPECT_EQ(cold.predict_detail(probe, 0.0).winning_template, -1);
  EXPECT_GE(warm.predict_detail(probe, 0.0).winning_template, 0);
}

TEST(Integration, EasyAndConservativeBothFinishEverything) {
  const Workload w = generate_synthetic(sdsc95_config(0.02));
  for (PolicyKind kind : {PolicyKind::BackfillConservative, PolicyKind::BackfillEasy}) {
    auto policy = make_policy(kind);
    MaxRuntimePredictor maxrt(w);
    const SimResult r = simulate(w, *policy, maxrt);
    EXPECT_EQ(std::count(r.start_times.begin(), r.start_times.end(), kNoTime), 0);
  }
}

TEST(Integration, CompressedLoadRaisesWaits) {
  // §4: compressing interarrival times raises offered load and must raise
  // (or at least not lower) queueing.
  const Workload base = generate_synthetic(sdsc96_config(0.05));
  const Workload pressed = compress_interarrival(base, 2.0);
  LwfPolicy lwf;
  ActualRuntimePredictor o1, o2;
  const Seconds base_wait = simulate(base, lwf, o1).mean_wait;
  const Seconds pressed_wait = simulate(pressed, lwf, o2).mean_wait;
  EXPECT_GE(pressed_wait, base_wait);
}

}  // namespace
}  // namespace rtp
