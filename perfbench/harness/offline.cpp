// Offline workload: wait-prediction cells of the paper's Tables 4-9.
//
// The untraced run times wait_prediction_cell, the entry point the paper
// tables use, and repeats the round of cells while the time budget allows.  A second,
// timed pass runs the same cell with the real WaitTimeObserver behind a
// thin timing observer (one clock pair per submission and per live
// scheduling pass) to get the per-submission latency distribution; its
// answers must be bit-identical to the cell's.  The traced run replaces
// the observer with a bench-side copy made of the public calls
// (state copy, reestimate_all, predict_start_time) so each layer gets a
// span, and reports the tracing overhead against one untraced cell.
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.hpp"
#include "traced_estimator.hpp"
#include "core/time.hpp"
#include "exp/experiments.hpp"
#include "predict/factory.hpp"
#include "predict/simple.hpp"
#include "sched/forward_sim.hpp"
#include "sched/shadow.hpp"
#include "sim/simulator.hpp"
#include "stats/summary.hpp"
#include "waitpred/waitpred.hpp"
#include "workload/synthetic.hpp"
#include "workload/transforms.hpp"

namespace perfbench {
namespace {

struct OfflineSpec {
  std::string name;
  std::string site;
  rtp::SyntheticConfig (*config)(double);
  double scale = 1.0;
  double compress = 1.0;  ///< interarrival compression (paper section 4)
  int subcells = 1;       ///< independent inputs per run, summed
  rtp::PredictorKind predictor = rtp::PredictorKind::MaxRuntime;
  rtp::PolicyKind policy = rtp::PolicyKind::BackfillConservative;
  /// Declared band of the mean number of jobs in the system at each
  /// submission; an input outside it is not the workload.
  double jis_lo = 0.0;
  double jis_hi = 0.0;
};

// Deep queue, cheap predictor: submission storms (interarrival compressed
// 1000x), so every submission sees a queue of hundreds and the mean depth
// is about half the job count whatever the seed.
const OfflineSpec kDeep = {"offline-deep", "SDSC96", rtp::sdsc96_config, 0.04, 1000.0, 16,
                           rtp::PredictorKind::MaxRuntime, rtp::PolicyKind::BackfillConservative,
                           400.0, 500.0};

std::vector<rtp::Workload> make_inputs(const OfflineSpec& spec, std::uint64_t seed) {
  std::vector<rtp::Workload> out;
  for (int k = 0; k < spec.subcells; ++k) {
    rtp::SyntheticConfig config = spec.config(spec.scale);
    config.seed += seed * static_cast<std::uint64_t>(spec.subcells) + static_cast<std::uint64_t>(k);
    rtp::Workload w = rtp::generate_synthetic(config);
    if (spec.compress != 1.0) w = rtp::compress_interarrival(w, spec.compress);
    out.push_back(std::move(w));
  }
  return out;
}

/// Forwards to a policy, timing every select_starts call: into a latency
/// vector (timed pass) or as a span (traced pass).
class TimedPolicy final : public rtp::SchedulerPolicy {
 public:
  TimedPolicy(const rtp::SchedulerPolicy& inner, std::vector<double>* samples_us, Tracer* tracer)
      : inner_(inner), samples_us_(samples_us), tracer_(tracer) {}

  std::vector<rtp::JobId> select_starts(rtp::Seconds now,
                                        const rtp::SystemState& state) const override {
    if (tracer_ != nullptr) {
      Scope span(tracer_, "sched.select_starts");
      return inner_.select_starts(now, state);
    }
    const std::int64_t t0 = Tracer::now_ns();
    std::vector<rtp::JobId> out = inner_.select_starts(now, state);
    samples_us_->push_back(static_cast<double>(Tracer::now_ns() - t0) * 1e-3);
    return out;
  }
  bool uses_running_estimates() const override { return inner_.uses_running_estimates(); }
  bool uses_queue_estimates() const override { return inner_.uses_queue_estimates(); }
  std::string name() const override { return inner_.name(); }
  rtp::PolicyKind kind() const override { return inner_.kind(); }

 private:
  const rtp::SchedulerPolicy& inner_;
  std::vector<double>* samples_us_;
  Tracer* tracer_;
};

/// Times the real WaitTimeObserver's on_submit and counts the jobs in the
/// system at each submission.
class TimingObserver final : public rtp::SimObserver {
 public:
  TimingObserver(rtp::WaitTimeObserver& inner, std::vector<double>& samples_us)
      : inner_(inner), samples_us_(samples_us) {}

  void on_submit(rtp::Seconds now, const rtp::SystemState& state, const rtp::Job& job) override {
    jobs_in_system_ += static_cast<double>(state.queue().size() + state.running().size());
    ++submits_;
    const std::int64_t t0 = Tracer::now_ns();
    inner_.on_submit(now, state, job);
    samples_us_.push_back(static_cast<double>(Tracer::now_ns() - t0) * 1e-3);
  }
  void on_start(const rtp::Job& job, rtp::Seconds start) override { inner_.on_start(job, start); }
  void on_finish(const rtp::Job& job, rtp::Seconds end) override { inner_.on_finish(job, end); }

  double jobs_in_system_sum() const { return jobs_in_system_; }
  std::size_t submits() const { return submits_; }

 private:
  rtp::WaitTimeObserver& inner_;
  std::vector<double>& samples_us_;
  double jobs_in_system_ = 0.0;
  std::size_t submits_ = 0;
};

/// WaitTimeObserver rebuilt from its public parts, one span per layer.
/// Its accounting follows WaitTimeObserver line for line so the error
/// statistics come out bit-identical.
class TracedObserver final : public rtp::SimObserver {
 public:
  TracedObserver(const rtp::SchedulerPolicy& policy, rtp::RuntimeEstimator& predictor,
                 Tracer& tracer)
      : policy_(policy), predictor_(predictor), tracer_(tracer) {}

  void on_submit(rtp::Seconds now, const rtp::SystemState& state, const rtp::Job& job) override {
    jobs_in_system_ += static_cast<double>(state.queue().size() + state.running().size());
    ++submits_;
    Scope submit(&tracer_, "waitpred.on_submit", job.id);
    rtp::SystemState shadow = [&] {
      Scope copy(&tracer_, "waitpred.state_copy", job.id);
      return state;
    }();
    {
      Scope refresh(&tracer_, "sched.reestimate_all", job.id);
      rtp::reestimate_all(shadow, predictor_, now);
    }
    rtp::Seconds start = 0.0;
    {
      Scope forward(&tracer_, "sched.predict_start", job.id);
      start = rtp::predict_start_time(shadow, policy_, now, job.id);
    }
    predicted_wait_.emplace(job.id, start - now);
  }
  void on_start(const rtp::Job& job, rtp::Seconds start) override {
    auto it = predicted_wait_.find(job.id);
    if (it == predicted_wait_.end()) return;
    const rtp::Seconds actual_wait = start - job.submit;
    error_.add(std::fabs(it->second - actual_wait));
    waits_.add(actual_wait);
    predicted_wait_.erase(it);
  }
  void on_finish(const rtp::Job& job, rtp::Seconds end) override {
    predictor_.job_completed(job, end);
  }

  const rtp::RunningStats& error_stats() const { return error_; }
  const rtp::RunningStats& wait_stats() const { return waits_; }
  double jobs_in_system_sum() const { return jobs_in_system_; }
  std::size_t submits() const { return submits_; }

 private:
  const rtp::SchedulerPolicy& policy_;
  rtp::RuntimeEstimator& predictor_;
  Tracer& tracer_;
  std::unordered_map<rtp::JobId, rtp::Seconds> predicted_wait_;
  rtp::RunningStats error_;
  rtp::RunningStats waits_;
  double jobs_in_system_ = 0.0;
  std::size_t submits_ = 0;
};

struct CellAnswer {
  double mean_error_minutes = 0.0;
  double mean_wait_minutes = 0.0;
};

struct RepResult {
  double wall_s = 0.0;
  std::vector<CellAnswer> answers;
};

RepResult run_cells(const OfflineSpec& spec, const std::vector<rtp::Workload>& inputs) {
  RepResult rep;
  const std::int64_t t0 = Tracer::now_ns();
  for (const rtp::Workload& w : inputs) {
    const rtp::WaitPredRow row = rtp::wait_prediction_cell(w, spec.policy, spec.predictor);
    rep.answers.push_back({row.mean_error_minutes, row.mean_wait_minutes});
  }
  rep.wall_s = seconds_between(t0, Tracer::now_ns());
  return rep;
}

void check_answers(const std::vector<CellAnswer>& reference, const std::vector<CellAnswer>& got,
                   const std::vector<rtp::Workload>& inputs, const std::string& what,
                   Outcome& out) {
  for (std::size_t k = 0; k < reference.size(); ++k) {
    if (same_bits(reference[k].mean_error_minutes, got[k].mean_error_minutes) &&
        same_bits(reference[k].mean_wait_minutes, got[k].mean_wait_minutes))
      continue;
    char msg[256];
    std::snprintf(msg, sizeof msg,
                  "%s cell %zu: mean error %.17g min / wait %.17g min, "
                  "wait_prediction_cell gave %.17g / %.17g",
                  what.c_str(), k, got[k].mean_error_minutes, got[k].mean_wait_minutes,
                  reference[k].mean_error_minutes, reference[k].mean_wait_minutes);
    out.fail(msg, static_cast<long long>(inputs[k].size()));
  }
}

void check_band(const OfflineSpec& spec, double jis_mean, Outcome& out) {
  if (jis_mean >= spec.jis_lo && jis_mean <= spec.jis_hi) return;
  char msg[200];
  std::snprintf(msg, sizeof msg,
                "jobs in system at submit %.2f is outside the declared band [%g, %g]", jis_mean,
                spec.jis_lo, spec.jis_hi);
  out.fail(msg);
}

long long total_jobs(const std::vector<rtp::Workload>& inputs) {
  long long n = 0;
  for (const rtp::Workload& w : inputs) n += static_cast<long long>(w.size());
  return n;
}

void describe(const OfflineSpec& spec, const RunOptions& options, Outcome& out) {
  const rtp::SyntheticConfig base = spec.config(spec.scale);
  char transform[96];
  std::snprintf(transform, sizeof transform, "compress_interarrival(%g)", spec.compress);
  out.details.str("site", spec.site)
      .num("scale", spec.scale)
      .integer("jobs_per_input", static_cast<long long>(base.job_count))
      .integer("subcells", spec.subcells)
      .str("seed_rule", "SyntheticConfig::seed += seed * subcells + k")
      .integer("seed", static_cast<long long>(options.seed))
      .str("transform", spec.compress == 1.0 ? "none" : transform)
      .str("predictor", rtp::to_string(spec.predictor))
      .str("policy", rtp::to_string(spec.policy))
      .num("jobs_in_system_band_lo", spec.jis_lo)
      .num("jobs_in_system_band_hi", spec.jis_hi)
      .integer("threads", 1);
}

}  // namespace

Outcome run_offline(const RunOptions& options) {
  if (options.workload != kDeep.name)
    throw std::runtime_error("unknown offline workload " + options.workload);
  const OfflineSpec& spec = kDeep;

  Outcome out;
  describe(spec, options, out);

  // Set-up: input generation, three times for a median.
  std::vector<double> setup_s;
  std::vector<rtp::Workload> inputs;
  for (int i = 0; i < 3; ++i) {
    const std::int64_t t0 = Tracer::now_ns();
    inputs = make_inputs(spec, options.seed);
    setup_s.push_back(seconds_between(t0, Tracer::now_ns()));
  }
  const long long jobs = total_jobs(inputs);
  const std::int64_t run_start = Tracer::now_ns();

  // The reference answers: wait_prediction_cell, untimed by anything.
  const RepResult first = run_cells(spec, inputs);
  out.attempted += jobs;

  if (!options.trace) {
    std::vector<double> walls = {first.wall_s};
    while (seconds_between(run_start, Tracer::now_ns()) + walls.back() <= 0.5 * options.seconds) {
      const RepResult rep = run_cells(spec, inputs);
      out.attempted += jobs;
      check_answers(first.answers, rep.answers, inputs, "repeat", out);
      walls.push_back(rep.wall_s);
    }

    // Timed pass: the real observer behind a timing wrapper.
    std::vector<double> submit_us;
    std::vector<double> event_us;
    std::vector<CellAnswer> timed;
    double jis_sum = 0.0;
    std::size_t submits = 0;
    for (const rtp::Workload& w : inputs) {
      auto predictor = rtp::make_runtime_estimator(spec.predictor, w);
      auto policy = rtp::make_policy(spec.policy);
      const TimedPolicy live_policy(*policy, &event_us, nullptr);
      rtp::MaxRuntimePredictor live(w);
      rtp::WaitTimeObserver observer(*policy, *predictor);
      TimingObserver timing(observer, submit_us);
      rtp::simulate(w, live_policy, live, &timing);
      timed.push_back({rtp::to_minutes(observer.error_stats().mean()),
                       rtp::to_minutes(observer.wait_stats().mean())});
      jis_sum += timing.jobs_in_system_sum();
      submits += timing.submits();
    }
    out.attempted += jobs;
    check_answers(first.answers, timed, inputs, "timed pass", out);
    check_band(spec, jis_sum / static_cast<double>(submits), out);

    const double wall = median(walls);
    const Summary est = summarize(submit_us);
    const Summary ev = summarize(event_us);
    out.set("setup_s", median(setup_s), "s");
    out.set("wall_s", wall, "s");
    out.set("peak_rss_mb", peak_rss_mb(), "MiB");
    out.set("estimate_p50_us", est.p50, "us");
    out.details.integer("cell_repeats", static_cast<long long>(walls.size()))
        .num("predictions_per_s", static_cast<double>(submits) / wall)
        .integer("estimate_samples", static_cast<long long>(est.count))
        .num("estimate_p95_us", est.p95)
        .num("estimate_p99_us", est.p99)
        .num("estimate_tail_pct", est.tail_pct)
        .num("estimate_tail_us", est.tail)
        .integer("event_samples", static_cast<long long>(ev.count))
        .num("event_p50_us", ev.p50)
        .num("event_p99_us", ev.p99)
        .num("event_tail_pct", ev.tail_pct)
        .num("event_tail_us", ev.tail)
        .num("jobs_in_system_at_submit_mean", jis_sum / static_cast<double>(submits))
        .num("mean_error_minutes_cell0", first.answers[0].mean_error_minutes);
    return out;
  }

  // Traced pass: one span per layer boundary.
  Tracer tracer;
  std::vector<CellAnswer> traced;
  double jis_sum = 0.0;
  std::size_t submits = 0;
  const std::int64_t t0 = Tracer::now_ns();
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    const rtp::Workload& w = inputs[k];
    Scope cell(&tracer, "exp.cell", k);
    auto predictor = rtp::make_runtime_estimator(spec.predictor, w);
    TracedEstimator timed_predictor(*predictor, tracer);
    auto policy = rtp::make_policy(spec.policy);
    const TimedPolicy live_policy(*policy, nullptr, &tracer);
    rtp::MaxRuntimePredictor live(w);
    TracedObserver observer(*policy, timed_predictor, tracer);
    {
      Scope sim(&tracer, "sim.simulate", k);
      rtp::simulate(w, live_policy, live, &observer);
    }
    traced.push_back({rtp::to_minutes(observer.error_stats().mean()),
                      rtp::to_minutes(observer.wait_stats().mean())});
    jis_sum += observer.jobs_in_system_sum();
    submits += observer.submits();
  }
  const double traced_wall = seconds_between(t0, Tracer::now_ns());
  out.attempted += jobs;
  check_answers(first.answers, traced, inputs, "traced pass", out);
  // The untraced baseline brackets the traced pass when the budget allows,
  // so warm-up does not read as negative overhead.
  std::vector<double> untraced = {first.wall_s};
  if (seconds_between(run_start, Tracer::now_ns()) + first.wall_s <= options.seconds) {
    const RepResult after = run_cells(spec, inputs);
    out.attempted += jobs;
    check_answers(first.answers, after.answers, inputs, "repeat", out);
    untraced.push_back(after.wall_s);
  }
  const double untraced_wall = (untraced.front() + untraced.back()) / 2.0;
  const double jis_mean = jis_sum / static_cast<double>(submits);
  check_band(spec, jis_mean, out);

  const auto t = [&](const char* name) { return tracer.totals_for(name); };
  const auto est = t("predict.estimate");
  out.set("predict.estimate_calls", static_cast<double>(est.count), "count");
  out.set("predict.estimate_s", est.total_s, "s");
  out.set("predict.estimate_ns_per_call",
          est.count > 0 ? est.total_s * 1e9 / static_cast<double>(est.count) : 0.0, "ns");
  out.set("predict.insert_calls", static_cast<double>(t("predict.insert").count), "count");
  out.set("predict.insert_s", t("predict.insert").total_s, "s");
  out.set("sched.reestimate_all_calls", static_cast<double>(t("sched.reestimate_all").count),
          "count");
  out.set("sched.reestimate_all_s", t("sched.reestimate_all").self_s, "s");
  out.set("sched.jobs_in_system_at_submit_mean", jis_mean, "count");
  out.set("sched.select_starts_calls", static_cast<double>(t("sched.select_starts").count),
          "count");
  out.set("sched.select_starts_s", t("sched.select_starts").self_s, "s");
  out.set("sched.predict_start_calls", static_cast<double>(t("sched.predict_start").count),
          "count");
  out.set("sched.predict_start_s", t("sched.predict_start").self_s, "s");
  out.set("sim.self_s", t("sim.simulate").self_s, "s");
  out.set("waitpred.state_copy_s", t("waitpred.state_copy").self_s, "s");
  out.set("workload.generate_s", median(setup_s), "s");
  out.set("trace.wall_untraced_s", untraced_wall, "s");
  out.set("trace.wall_traced_s", traced_wall, "s");
  out.set("trace.overhead_s", traced_wall - untraced_wall, "s");
  out.set("trace.spans", static_cast<double>(tracer.span_count()), "count");

  const std::string spans_path = options.out_dir + "/spans-" + options.workload + "-seed" +
                                 std::to_string(options.seed) + ".jsonl";
  tracer.write_jsonl(spans_path);
  out.details.str("spans_file", spans_path)
      .num("waitpred.on_submit_self_s", t("waitpred.on_submit").self_s)
      .num("exp.cell_self_s", t("exp.cell").self_s);
  return out;
}

}  // namespace perfbench
