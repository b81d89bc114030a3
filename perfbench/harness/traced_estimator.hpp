// A run-time predictor decorator that accounts every call to a Tracer
// (too many calls for a span each), used by the traced runs.
#pragma once

#include <optional>
#include <string>

#include "report.hpp"
#include "sched/estimator.hpp"

namespace perfbench {

/// Forwards to a run-time predictor, accounting each estimate and each
/// completion to the tracer without a span per call.
class TracedEstimator final : public rtp::RuntimeEstimator {
 public:
  TracedEstimator(rtp::RuntimeEstimator& inner, Tracer& tracer) : inner_(inner), tracer_(tracer) {}

  rtp::Seconds estimate(const rtp::Job& job, rtp::Seconds age) override {
    const std::int64_t t0 = Tracer::now_ns();
    const rtp::Seconds out = inner_.estimate(job, age);
    tracer_.account("predict.estimate", Tracer::now_ns() - t0);
    return out;
  }
  std::optional<rtp::Seconds> try_estimate(const rtp::Job& job, rtp::Seconds age) override {
    const std::int64_t t0 = Tracer::now_ns();
    const auto out = inner_.try_estimate(job, age);
    tracer_.account("predict.estimate", Tracer::now_ns() - t0);
    return out;
  }
  void job_completed(const rtp::Job& job, rtp::Seconds completion_time) override {
    const std::int64_t t0 = Tracer::now_ns();
    inner_.job_completed(job, completion_time);
    tracer_.account("predict.insert", Tracer::now_ns() - t0);
  }
  std::string name() const override { return inner_.name(); }

 private:
  rtp::RuntimeEstimator& inner_;
  Tracer& tracer_;
};

}  // namespace perfbench
