// run_online: set-up, the unpaced passes, the rate ladder and the traced
// counters of the online workload (see online.cpp for the pass mechanics).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "online.hpp"
#include "stats/histogram.hpp"

namespace perfbench {
namespace {

struct Launched {
  std::vector<Stream> streams;
  std::unique_ptr<Fleet> fleet;
  double setup_s = 0.0;
};

/// The run's inputs: traces, recorded lines and the expected replies.
std::vector<Stream> inputs(const OnlineSpec& spec, const RunOptions& options, SetupTimes* times) {
  std::vector<Stream> streams = prepare_streams(spec, options.seed, options.out_dir, times, true);
  compute_expected(spec, streams);
  return streams;
}

/// A paced pass sends the first kPacedPassSeconds worth of lines at its
/// rate (every stream cut at the same fraction), so a pass takes the same
/// time at every rate; an unpaced pass sends everything.
constexpr double kPacedPassSeconds = 4.0;

/// Set-up of one pass: the traces are generated and written again, and
/// fresh server processes start on them (each records the session log
/// itself before it listens); then the partition map is installed.
Launched setup(const OnlineSpec& spec, const RunOptions& options, int pass,
               const std::vector<Stream>& reference, double rate) {
  Launched l;
  const std::int64_t t0 = Tracer::now_ns();
  l.streams = prepare_streams(spec, options.seed, options.out_dir, nullptr, false);
  l.fleet = launch(spec, l.streams, options, pass);
  l.setup_s = seconds_between(t0, Tracer::now_ns());
  double total = 0.0;
  for (const Stream& s : reference) total += static_cast<double>(s.lines.size());
  const double keep = rate > 0.0 ? std::min(1.0, rate * kPacedPassSeconds / total) : 1.0;
  for (std::size_t i = 0; i < l.streams.size(); ++i) {
    const Stream& r = reference[i];
    const auto n = static_cast<std::ptrdiff_t>(
        std::ceil(keep * static_cast<double>(r.lines.size())));
    l.streams[i].lines.assign(r.lines.begin(), r.lines.begin() + n);
    l.streams[i].is_estimate.assign(r.is_estimate.begin(), r.is_estimate.begin() + n);
    l.streams[i].expected.assign(r.expected.begin(), r.expected.begin() + n);
  }
  return l;
}

void account(const PassStats& st, Outcome& out, const std::string& what) {
  out.attempted += st.sent;
  if (st.failed > 0)
    out.fail(what + ": " + std::to_string(st.failed) + " of " + std::to_string(st.sent) +
                 " lines failed (" + std::to_string(st.err) + " ERR replies" +
                 (st.transport_error ? ", transport failure" : "") + ")",
             st.failed);
}

std::string ladder_json(const std::vector<LadderStep>& steps, const std::vector<PassStats>& stats) {
  std::string json = "[";
  for (std::size_t i = 0; i < steps.size(); ++i) {
    if (i > 0) json += ", ";
    JsonObject o;
    o.num("rate", steps[i].rate)
        .num("estimate_p50_us", stats[i].estimate.p50)
        .num("estimate_p95_us", steps[i].tail_us)
        .num("estimate_p99_us", stats[i].estimate.p99)
        .num("event_p95_us", stats[i].event.p95)
        .num("late_p99_us", stats[i].late.p99)
        .boolean("backlog_grew", steps[i].backlog_grew)
        .boolean("complete", steps[i].complete);
    json += o.dump();
  }
  return json + "]";
}

void describe(const OnlineSpec& spec, const RunOptions& options, Outcome& out) {
  std::string streams;
  for (const StreamSpec& s : spec.streams) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s%s scale %g, arrivals rescaled to offered load %g, key %s",
                  streams.empty() ? "" : "; ", s.site.c_str(), s.scale, s.load, s.key.c_str());
    streams += buf;
  }
  out.details.str("streams", streams)
      .str("seed_rule", "SyntheticConfig::seed += seed")
      .integer("seed", static_cast<long long>(options.seed))
      .str("predictor", spec.predictor)
      .str("policy", spec.policy)
      .str("queries", "one ESTIMATE after every SUBMIT")
      .str("journal", "rtpd defaults: --fsync interval, --snapshot-every 256")
      .raw("rate_ladder_lines_per_s", json_list(spec.ladder))
      .num("reference_rate", spec.reference_rate)
      .num("paced_pass_s", kPacedPassSeconds)
      .num("estimate_p95_limit_us", kLatencyLimitUs)
      .integer("connections", static_cast<long long>(spec.streams.size()))
      .integer("loadgen_threads", static_cast<long long>(2 * spec.streams.size()))
      .integer("rtpd_threads", 2)
      .integer("rtprouter_threads", 2);
}

void traced_run(const OnlineSpec& spec, const RunOptions& options, Outcome& out) {
  SetupTimes times;
  const std::vector<Stream> reference = inputs(spec, options, &times);
  Launched l = setup(spec, options, 0, reference, spec.reference_rate);
  const PassTrace trace = run_pass(l.streams, l.fleet->front_port, spec.reference_rate);
  const PassStats st = score_pass(l.streams, trace);
  account(st, out, "reference pass");

  // Server-side counters, summed over the partitions.
  double shadow_rebuilds = 0, shadow_repairs = 0, shadow_bookings = 0, shadow_reused = 0;
  double journal_records = 0, journal_bytes = 0, journal_syncs = 0, journal_snapshots = 0;
  double shed = 0;
  rtp::LatencyHistogram request_hist, estimate_hist;
  for (const std::uint16_t port : l.fleet->worker_ports) {
    const auto f = stats_fields(port, "STATS hist");
    shadow_rebuilds += field(f, "shadow_rebuilds");
    shadow_repairs += field(f, "shadow_repairs");
    shadow_bookings += field(f, "shadow_bookings");
    shadow_reused += field(f, "shadow_reused");
    journal_records += field(f, "journal_records");
    journal_bytes += field(f, "journal_bytes");
    journal_syncs += field(f, "journal_syncs");
    journal_snapshots += field(f, "snapshots");
    shed += field(f, "shed");
    if (f.count("request_hist"))
      request_hist.merge(rtp::LatencyHistogram::deserialize(f.at("request_hist")));
    if (f.count("estimate_hist"))
      estimate_hist.merge(rtp::LatencyHistogram::deserialize(f.at("estimate_hist")));
  }
  const auto router_stats = stats_fields(l.fleet->front_port, "STATS");
  const double forwarded = field(router_stats, "router_forwarded");
  const double failovers = field(router_stats, "router_failovers");
  l.fleet.reset();

  out.set("shadow.rebuilds", shadow_rebuilds, "count");
  out.set("shadow.repairs", shadow_repairs, "count");
  out.set("shadow.bookings", shadow_bookings, "count");
  out.set("shadow.reused", shadow_reused, "count");
  out.set("shadow.bookings_per_rebuild",
          shadow_rebuilds > 0 ? shadow_bookings / shadow_rebuilds : 0.0, "count");
  out.set("shadow.repair_share",
          shadow_repairs + shadow_rebuilds > 0
              ? shadow_repairs / (shadow_repairs + shadow_rebuilds)
              : 0.0,
          "ratio");
  out.set("server.request_p50_us", request_hist.p50(), "us");
  out.set("server.request_p99_us", request_hist.p99(), "us");
  out.set("server.estimate_p99_us", estimate_hist.p99(), "us");
  out.set("server.shed", shed, "count");
  out.set("journal.records", journal_records, "count");
  out.set("journal.bytes", journal_bytes, "bytes");
  out.set("journal.syncs", journal_syncs, "count");
  out.set("journal.snapshots", journal_snapshots, "count");
  out.set("router.forwarded", forwarded, "count");
  out.set("router.failovers", failovers, "count");
  out.set("workload.generate_s", times.generate_s, "s");
  out.set("replay.record_s", times.record_s, "s");
  out.set("loadgen.sent", static_cast<double>(st.sent), "count");
  out.set("loadgen.ok", static_cast<double>(st.ok), "count");
  out.set("loadgen.err", static_cast<double>(st.err), "count");
  out.set("loadgen.late_p99_us", st.late.p99, "us");

  long long first_queries = 0;
  for (const Stream& s : l.streams)
    for (std::size_t k = 0; k < s.lines.size(); ++k)
      if (k > 0 && s.is_estimate[k] && !s.is_estimate[k - 1]) ++first_queries;
  out.details.integer("first_queries", first_queries);

  trace_in_process(spec, l.streams, options, out);
}

}  // namespace

Outcome run_online(const RunOptions& options) {
  const OnlineSpec& spec = online_spec(options.workload);
  Outcome out;
  describe(spec, options, out);
  if (options.trace) {
    traced_run(spec, options, out);
    return out;
  }

  std::vector<double> setup_s, rss;
  const std::vector<Stream> reference = inputs(spec, options, nullptr);
  int pass_no = 0;
  const auto pass = [&](double rate, const std::string& what) {
    Launched l = setup(spec, options, pass_no++, reference, rate);
    setup_s.push_back(l.setup_s);
    const PassStats st = score_pass(l.streams, run_pass(l.streams, l.fleet->front_port, rate));
    rss.push_back(l.fleet->peak_rss_mb());
    account(st, out, what);
    return st;
  };

  // Unpaced passes: the wall time of the whole stream through the served
  // path, as fast as the servers take it.  wall_s is the fastest pass: on a
  // shared host the others carry interference that moves them by up to 2x
  // within one run.
  std::vector<double> walls;
  for (int p = 0; p < spec.unpaced_passes; ++p) walls.push_back(pass(0.0, "unpaced pass").wall_s);

  // The ladder, lowest rate first, stopping after the first failing step.
  // The first step is the reference rate; estimate_p50_us is the median of
  // its passes.  The tail percentiles and the knee go to the result record:
  // on a shared 4-vCPU VM they move with host stalls far more than the
  // benchmark's bounds allow, so they inform but do not gate.
  std::vector<LadderStep> steps;
  std::vector<PassStats> step_stats;
  std::vector<double> ref_p50, ref_p95;
  for (const double rate : spec.ladder) {
    const bool is_reference = rate == spec.reference_rate;
    PassStats st;
    for (int p = 0; p < (is_reference ? spec.reference_passes : 1); ++p) {
      st = pass(rate, "rate " + json_number(rate));
      if (!is_reference) continue;
      ref_p50.push_back(st.estimate.p50);
      ref_p95.push_back(st.estimate.p95);
    }
    LadderStep step;
    step.rate = rate;
    step.tail_us = is_reference ? median(ref_p95) : st.estimate.p95;
    step.backlog_grew = st.backlog_grew;
    step.complete = st.failed == 0;
    steps.push_back(step);
    step_stats.push_back(st);
    if (step.backlog_grew || !step.complete || step.tail_us > kLatencyLimitUs) break;
  }
  if (ref_p50.empty()) out.fail("the ladder never reached the reference rate");

  out.set("setup_s", median(setup_s), "s");
  out.set("wall_s", *std::min_element(walls.begin(), walls.end()), "s");
  out.set("peak_rss_mb", *std::max_element(rss.begin(), rss.end()), "MiB");
  out.set("estimate_p50_us", median(ref_p50), "us");
  const PassStats& ref = step_stats.front();
  out.details.num("max_rate_rps", knee_rate(steps, kLatencyLimitUs))
      .integer("estimate_samples", static_cast<long long>(ref.estimate.count))
      .num("estimate_p95_us", ref.estimate.p95)
      .num("estimate_p99_us", ref.estimate.p99)
      .num("estimate_tail_pct", ref.estimate.tail_pct)
      .num("estimate_tail_us", ref.estimate.tail)
      .integer("event_samples", static_cast<long long>(ref.event.count))
      .num("event_p50_us", ref.event.p50)
      .num("event_p95_us", ref.event.p95)
      .num("event_p99_us", ref.event.p99)
      .num("event_tail_pct", ref.event.tail_pct)
      .num("event_tail_us", ref.event.tail)
      .num("late_p99_us", ref.late.p99)
      .raw("ladder", ladder_json(steps, step_stats))
      .raw("unpaced_walls_s", json_list(walls))
      .raw("setups_s", json_list(setup_s))
      .integer("passes", pass_no);
  return out;
}

}  // namespace perfbench
