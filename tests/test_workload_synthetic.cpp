#include "workload/synthetic.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <set>

#include "workload/workload.hpp"

namespace rtp {
namespace {

TEST(Synthetic, DeterministicInSeed) {
  SyntheticConfig config = anl_config(0.02);
  const Workload a = generate_synthetic(config);
  const Workload b = generate_synthetic(config);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.job(i).submit, b.job(i).submit);
    EXPECT_DOUBLE_EQ(a.job(i).runtime, b.job(i).runtime);
    EXPECT_EQ(a.job(i).user, b.job(i).user);
  }
}

TEST(Synthetic, DifferentSeedsDiffer) {
  SyntheticConfig config = anl_config(0.02);
  const Workload a = generate_synthetic(config);
  config.seed += 1;
  const Workload b = generate_synthetic(config);
  ASSERT_EQ(a.size(), b.size());
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size() && !any_diff; ++i)
    any_diff = a.job(i).runtime != b.job(i).runtime;
  EXPECT_TRUE(any_diff);
}

struct SiteCase {
  const char* name;
  SyntheticConfig (*make)(double);
  std::size_t full_count;
  int nodes;
  double mean_runtime;
  bool has_max;
  bool has_queue;
};

// gtest lists a parameter without a printer as its raw bytes, which would
// put pointers that move with ASLR into every listed name.
void PrintTo(const SiteCase& c, std::ostream* os) { *os << c.name; }

class SiteParam : public ::testing::TestWithParam<SiteCase> {};

TEST_P(SiteParam, MatchesTableOneAggregates) {
  const SiteCase& site = GetParam();
  const Workload w = generate_synthetic(site.make(0.25));
  const WorkloadStats stats = compute_stats(w);

  EXPECT_EQ(w.machine_nodes(), site.nodes);
  EXPECT_EQ(w.size(),
            static_cast<std::size_t>(static_cast<double>(site.full_count) * 0.25));
  // Mean run time within 10% of the Table 1 value (limit clamping shaves a
  // little off the exact scaled mean).
  EXPECT_NEAR(stats.mean_runtime_minutes, site.mean_runtime, 0.10 * site.mean_runtime);
  if (site.has_max)
    EXPECT_DOUBLE_EQ(stats.max_runtime_coverage, 1.0);
  else
    EXPECT_DOUBLE_EQ(stats.max_runtime_coverage, 0.0);
  EXPECT_EQ(w.fields().has(Characteristic::Queue), site.has_queue);
  EXPECT_NO_THROW(w.validate());
}

TEST_P(SiteParam, OfferedLoadNearTarget) {
  const SiteCase& site = GetParam();
  const SyntheticConfig config = site.make(0.5);
  const Workload w = generate_synthetic(config);
  const WorkloadStats stats = compute_stats(w);
  EXPECT_NEAR(stats.offered_load, config.target_utilization,
              0.12 * config.target_utilization);
}

TEST_P(SiteParam, LimitsRespectActualRuntimes) {
  const SiteCase& site = GetParam();
  const Workload w = generate_synthetic(site.make(0.1));
  for (const Job& j : w.jobs()) {
    if (j.has_max_runtime()) {
      EXPECT_LE(j.runtime, j.max_runtime + 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sites, SiteParam,
    ::testing::Values(SiteCase{"ANL", anl_config, 7994, 80, 97.75, true, false},
                      SiteCase{"CTC", ctc_config, 13217, 512, 171.14, true, false},
                      SiteCase{"SDSC95", sdsc95_config, 22885, 400, 108.21, false, true},
                      SiteCase{"SDSC96", sdsc96_config, 22337, 400, 166.98, false, true}),
    [](const ::testing::TestParamInfo<SiteCase>& param_info) {
      return param_info.param.name;
    });

TEST(Synthetic, SdscHasPaperLikeQueueCount) {
  const Workload w = generate_synthetic(sdsc95_config(0.25));
  std::set<std::string> queues;
  for (const Job& j : w.jobs()) queues.insert(j.queue);
  // The paper reports 29-35 queues; the node-class x time-class scheme
  // lands in the same range.
  EXPECT_GE(queues.size(), 15u);
  EXPECT_LE(queues.size(), 40u);
}

TEST(Synthetic, AnlRecordsExecutableAndArguments) {
  const Workload w = generate_synthetic(anl_config(0.02));
  EXPECT_TRUE(w.fields().has(Characteristic::Executable));
  EXPECT_TRUE(w.fields().has(Characteristic::Arguments));
  for (const Job& j : w.jobs()) {
    EXPECT_FALSE(j.user.empty());
    EXPECT_FALSE(j.executable.empty());
    EXPECT_TRUE(j.type == "batch" || j.type == "interactive");
  }
}

TEST(Synthetic, CtcRecordsScriptClassAdaptor) {
  const Workload w = generate_synthetic(ctc_config(0.02));
  EXPECT_TRUE(w.fields().has(Characteristic::Script));
  EXPECT_TRUE(w.fields().has(Characteristic::Class));
  EXPECT_TRUE(w.fields().has(Characteristic::NetworkAdaptor));
  bool any_serial = false;
  for (const Job& j : w.jobs()) {
    EXPECT_FALSE(j.script.empty());
    if (j.type == "serial") {
      any_serial = true;
      EXPECT_EQ(j.nodes, 1);
    }
  }
  EXPECT_TRUE(any_serial);
}

TEST(Synthetic, RepeatedAppRunsShareCategoryKeyFields) {
  // The burst mechanism must produce adjacent submissions by the same
  // user+executable — the history signal the predictors rely on.
  const Workload w = generate_synthetic(anl_config(0.1));
  std::size_t adjacent_same = 0;
  for (std::size_t i = 1; i < w.size(); ++i)
    if (w.job(i).user == w.job(i - 1).user &&
        w.job(i).executable == w.job(i - 1).executable)
      ++adjacent_same;
  EXPECT_GT(static_cast<double>(adjacent_same) / static_cast<double>(w.size()), 0.2);
}

TEST(RoundUpToLimitGrid, GridValues) {
  EXPECT_DOUBLE_EQ(round_up_to_limit_grid(minutes(10)), minutes(15));
  EXPECT_DOUBLE_EQ(round_up_to_limit_grid(minutes(15)), minutes(15));
  EXPECT_DOUBLE_EQ(round_up_to_limit_grid(minutes(16)), minutes(30));
  EXPECT_DOUBLE_EQ(round_up_to_limit_grid(hours(1.5)), hours(2));
  EXPECT_DOUBLE_EQ(round_up_to_limit_grid(hours(47)), hours(48));
  EXPECT_DOUBLE_EQ(round_up_to_limit_grid(hours(49)), days(3));
}

TEST(Synthetic, RejectsBadConfig) {
  SyntheticConfig config = anl_config(0.02);
  config.target_utilization = 1.5;
  EXPECT_THROW(generate_synthetic(config), Error);
  config = anl_config(0.02);
  config.machine_nodes = 0;
  EXPECT_THROW(generate_synthetic(config), Error);
}

TEST(PaperWorkloads, ReturnsAllFourInOrder) {
  const auto all = paper_workloads(0.02);
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all[0].name(), "ANL");
  EXPECT_EQ(all[1].name(), "CTC");
  EXPECT_EQ(all[2].name(), "SDSC95");
  EXPECT_EQ(all[3].name(), "SDSC96");
}

}  // namespace
}  // namespace rtp
