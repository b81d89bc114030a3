// Unit tests for the benchmark's metric arithmetic (harness/report.hpp).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "report.hpp"

namespace perfbench {
namespace {

TEST(TailPercentile, NeedsTenSamplesBeyond) {
  EXPECT_EQ(tail_percentile(0), 0.0);
  EXPECT_EQ(tail_percentile(19), 0.0);
  EXPECT_EQ(tail_percentile(20), 50.0);
  EXPECT_EQ(tail_percentile(39), 50.0);
  EXPECT_EQ(tail_percentile(40), 75.0);
  EXPECT_EQ(tail_percentile(100), 90.0);
  EXPECT_EQ(tail_percentile(199), 90.0);
  EXPECT_EQ(tail_percentile(200), 95.0);
  EXPECT_EQ(tail_percentile(999), 95.0);
  EXPECT_EQ(tail_percentile(1000), 99.0);  // exactly ten beyond p99
  EXPECT_EQ(tail_percentile(9999), 99.0);
  EXPECT_EQ(tail_percentile(10000), 99.9);
  EXPECT_EQ(tail_percentile(100000), 99.99);
}

TEST(Summary, NearestRankQuantiles) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const Summary s = summarize(v);
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.p50, 500.0);
  EXPECT_EQ(s.p99, 990.0);
  EXPECT_EQ(s.tail_pct, 99.0);
  EXPECT_EQ(s.tail, 990.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(quantile({}, 0.5), 0.0);
}

TEST(OpenLoop, ScheduleAndLatencyFromIntendedTime) {
  const std::vector<double> due = open_loop_schedule(4, 2000.0);
  ASSERT_EQ(due.size(), 4u);
  EXPECT_DOUBLE_EQ(due[0], 0.0);
  EXPECT_DOUBLE_EQ(due[3], 1500.0);  // 500 us apart
  // A line due at 1000 us, sent late at 1300 us and answered at 1400 us
  // waited 400 us from the user's point of view, 300 of them in the
  // generator.
  EXPECT_DOUBLE_EQ(latency_from_intended(1000.0, 1400.0), 400.0);
  EXPECT_DOUBLE_EQ(lateness(1000.0, 1300.0), 300.0);
  EXPECT_THROW(open_loop_schedule(3, 0.0), std::invalid_argument);
}

TEST(Backlog, SteadyServiceDoesNotGrow) {
  std::vector<double> due = open_loop_schedule(4000, 4000.0), done;
  for (const double d : due) done.push_back(d + 50.0);
  EXPECT_FALSE(backlog_grows(due, done));
}

TEST(Backlog, OverloadGrows) {
  // Arrivals every 250 us, service every 400 us: the queue builds.
  std::vector<double> due = open_loop_schedule(4000, 4000.0), done;
  for (std::size_t i = 0; i < due.size(); ++i) done.push_back(400.0 * static_cast<double>(i + 1));
  EXPECT_TRUE(backlog_grows(due, done));
}

TEST(Backlog, UnansweredCountAsOutstanding) {
  std::vector<double> due = open_loop_schedule(2000, 1000.0), done(2000, -1.0);
  EXPECT_TRUE(backlog_grows(due, done));
  // A short burst of stragglers that drains is not growth.
  std::vector<double> ok;
  for (std::size_t i = 0; i < due.size(); ++i)
    ok.push_back(due[i] + (i >= 100 && i < 120 ? 5000.0 : 30.0));
  EXPECT_FALSE(backlog_grows(due, ok));
}

TEST(Knee, InterpolatesBetweenLadderSteps) {
  const std::vector<LadderStep> steps = {
      {1000.0, 100.0, false, true}, {2000.0, 200.0, false, true}, {4000.0, 3200.0, false, true}};
  // p99 crosses 800 us a half-way in log(p99) between 200 and 3200, so the
  // knee is half-way in log(rate) between 2000 and 4000.
  EXPECT_NEAR(knee_rate(steps, 800.0), 2000.0 * std::sqrt(2.0), 1e-6);
  EXPECT_DOUBLE_EQ(knee_rate(steps, 5000.0), 4000.0);  // whole ladder passes
  EXPECT_DOUBLE_EQ(knee_rate(steps, 50.0), 0.0);       // first step fails
}

TEST(Knee, GrowingBacklogOrFailuresStopTheLadder) {
  std::vector<LadderStep> steps = {
      {1000.0, 100.0, false, true}, {2000.0, 150.0, true, true}, {4000.0, 120.0, false, true}};
  EXPECT_DOUBLE_EQ(knee_rate(steps, 800.0), 1000.0);
  steps[1].backlog_grew = false;
  steps[1].complete = false;
  EXPECT_DOUBLE_EQ(knee_rate(steps, 800.0), 1000.0);
}

TEST(Knee, KneeOnASyntheticLatencySeries) {
  // Service takes 300 us per line; at each rate build the open-loop
  // latency series a single FIFO server produces and find the knee.
  const double service_us = 300.0;
  std::vector<LadderStep> steps;
  for (const double rate : {1000.0, 2000.0, 3000.0, 4000.0}) {
    const std::vector<double> due = open_loop_schedule(3000, rate);
    std::vector<double> done, latency;
    double free_at = 0.0;
    for (const double d : due) {
      free_at = std::max(free_at, d) + service_us;
      done.push_back(free_at);
      latency.push_back(latency_from_intended(d, free_at));
    }
    steps.push_back({rate, summarize(latency).p99, backlog_grows(due, done), true});
  }
  EXPECT_FALSE(steps[0].backlog_grew);
  EXPECT_FALSE(steps[1].backlog_grew);
  EXPECT_FALSE(steps[2].backlog_grew);  // 3000/s keeps up with 300 us service
  EXPECT_TRUE(steps[3].backlog_grew);   // 4000/s does not
  EXPECT_DOUBLE_EQ(knee_rate(steps, 1000.0), 3000.0);
}

TEST(MetricNames, Grammar) {
  EXPECT_TRUE(valid_metric_name("estimate_p99_us"));
  EXPECT_TRUE(valid_metric_name("sched.select_starts_s"));
  EXPECT_TRUE(valid_metric_name("offline-deep.0"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("p99 us"));
  EXPECT_FALSE(valid_metric_name("rate/s"));
  EXPECT_FALSE(valid_metric_name("m\xc3\xa9trica"));
}

TEST(Tracer, SelfTimeExcludesChildren) {
  Tracer t;
  const auto outer = t.begin("outer");
  const auto inner = t.begin("inner", 7);
  t.end(inner);
  t.account("leaf", 1000);
  t.end(outer);
  const Tracer::Totals o = t.totals_for("outer");
  const Tracer::Totals i = t.totals_for("inner");
  EXPECT_EQ(o.count, 1u);
  EXPECT_NEAR(o.self_s, o.total_s - i.total_s - 1e-6, 1e-12);
  EXPECT_EQ(t.totals_for("leaf").count, 1u);
  EXPECT_EQ(t.span_count(), 2u);
}

TEST(Json, NumbersRoundTrip) {
  EXPECT_EQ(json_number(0.1), "0.1");
  EXPECT_EQ(json_number(1.2034), "1.2034");
  EXPECT_EQ(json_number(2.0), "2");
  EXPECT_EQ(std::stod(json_number(1.0 / 3.0)), 1.0 / 3.0);
  EXPECT_EQ(json_string("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(JsonObject().num("x", 1.5).str("u", "ms").dump(), "{\"x\": 1.5, \"u\": \"ms\"}");
}

}  // namespace
}  // namespace perfbench
