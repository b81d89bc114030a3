// In-process layer replays for the traced online run.  The same lines the
// servers received go through each layer's public calls, one span per
// call:
//
//   protocol  parse_request / format_request            (accounted per line)
//   session   OnlineSession verbs, with a bench-owned JournalWriter doing
//             the server's write-ahead steps
//   server    ServiceServer::handle_line (replies checked byte for byte)
//   router    rtp::Router::handle_line against fresh rtpd partitions
//
// The session replay also runs once untraced; the difference is the
// tracing overhead.
#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "online.hpp"
#include "service/journal.hpp"
#include "service/protocol.hpp"
#include "service/router.hpp"
#include "service/server.hpp"
#include "traced_estimator.hpp"

namespace perfbench {
namespace {

void apply(rtp::OnlineSession& session, const rtp::Request& r) {
  switch (r.kind) {
    case rtp::RequestKind::Submit: session.submit(r.job, r.time); break;
    case rtp::RequestKind::Start: session.start(r.id, r.time); break;
    case rtp::RequestKind::Finish: session.finish(r.id, r.time); break;
    case rtp::RequestKind::Cancel: session.cancel(r.id, r.time); break;
    case rtp::RequestKind::Fail: session.fail(r.id, r.time); break;
    case rtp::RequestKind::NodeDown: session.node_down(r.nodes, r.time); break;
    case rtp::RequestKind::NodeUp: session.node_up(r.nodes, r.time); break;
    default: throw std::runtime_error("unexpected request in a recorded stream");
  }
}

struct SessionSamples {
  std::vector<double> apply_us, first_us, repeat_us, append_us, commit_us;
  double snapshot_bytes_max = 0.0;
  std::uint64_t cache_hits = 0, cache_lookups = 0;
};

/// The session layer, traced when `tracer` is set.  Returns the wall time.
double session_pass(const OnlineSpec& spec, const std::vector<Stream>& streams,
                    const std::vector<std::vector<rtp::Request>>& parsed,
                    const RunOptions& options, Tracer* tracer, SessionSamples* samples) {
  const std::int64_t t0 = Tracer::now_ns();
  for (std::size_t si = 0; si < streams.size(); ++si) {
    const Stream& s = streams[si];
    ServedSession served(spec, s.workload);
    std::unique_ptr<TracedEstimator> traced;
    if (tracer != nullptr) traced = std::make_unique<TracedEstimator>(*served.predictor, *tracer);
    auto session = served.session(
        s.workload, traced ? static_cast<rtp::RuntimeEstimator&>(*traced) : *served.predictor);
    const std::string path = options.out_dir + "/inproc-" + s.spec.key +
                             (tracer != nullptr ? "-traced" : "") + ".rtpj";
    std::remove(path.c_str());
    rtp::JournalWriter journal_writer(path);
    rtp::JournalWriter* journal = &journal_writer;
    std::size_t since_snapshot = 0;
    const auto timed = [&](const char* name, std::uint64_t request, std::vector<double>* into,
                           auto&& fn) {
      Scope span(tracer, name, request);
      const std::int64_t a = Tracer::now_ns();
      fn();
      if (into != nullptr) into->push_back(static_cast<double>(Tracer::now_ns() - a) * 1e-3);
    };
    const auto committed = [&](std::uint64_t request) {
      timed("journal.commit", request, &samples->commit_us, [&] { journal->commit(); });
      if (++since_snapshot < 256) return;
      std::ostringstream snapshot;
      session->serialize(snapshot);
      samples->snapshot_bytes_max =
          std::max(samples->snapshot_bytes_max, static_cast<double>(snapshot.str().size()));
      timed("journal.snapshot", request, nullptr, [&] {
        journal->append_snapshot(snapshot.str());
        journal->commit();
      });
      since_snapshot = 0;
    };
    std::uint64_t last_version = ~0ull;
    for (std::size_t k = 0; k < s.lines.size(); ++k) {
      const rtp::Request& r = parsed[si][k];
      const std::uint64_t request = (static_cast<std::uint64_t>(si) << 32) | k;
      Scope line(tracer, "line", request);
      if (s.is_estimate[k]) {
        const bool first = session->state_version() != last_version;
        last_version = session->state_version();
        const std::size_t registered = session->recorded_predictions();
        timed("session.estimate", request, first ? &samples->first_us : &samples->repeat_us,
              [&] { session->estimate_wait(r.id); });
        if (session->recorded_predictions() > registered) {
          timed("journal.append", request, &samples->append_us, [&] {
            journal->append_prediction(r.id, session->recorded_prediction(r.id));
          });
          committed(request);
        }
        continue;
      }
      timed("journal.append", request, &samples->append_us,
            [&] { journal->append_event(s.lines[k]); });
      timed("session.apply", request, &samples->apply_us, [&] { apply(*session, r); });
      committed(request);
    }
    samples->cache_hits += session->counters().cache_hits;
    samples->cache_lookups += session->counters().cache_hits + session->counters().cache_misses;
  }
  return seconds_between(t0, Tracer::now_ns());
}

}  // namespace

void trace_in_process(const OnlineSpec& spec, const std::vector<Stream>& streams,
                      const RunOptions& options, Outcome& out) {
  Tracer tracer;

  // Protocol: parse and re-format every line.
  std::vector<std::vector<rtp::Request>> parsed(streams.size());
  std::int64_t parse_ns = 0, format_ns = 0;
  std::size_t lines = 0;
  for (std::size_t si = 0; si < streams.size(); ++si) {
    for (const std::string& line : streams[si].lines) {
      const std::int64_t a = Tracer::now_ns();
      rtp::Request r = rtp::parse_request(line);
      const std::int64_t b = Tracer::now_ns();
      const std::string again = rtp::format_request(r);
      const std::int64_t c = Tracer::now_ns();
      parse_ns += b - a;
      format_ns += c - b;
      parsed[si].push_back(std::move(r));
      ++lines;
    }
  }
  out.set("protocol.parse_ns_per_line", static_cast<double>(parse_ns) / static_cast<double>(lines),
          "ns");
  out.set("protocol.format_ns_per_line",
          static_cast<double>(format_ns) / static_cast<double>(lines), "ns");

  // Session (plus journal): untraced, then traced.
  SessionSamples untraced_samples, samples;
  const double untraced_wall =
      session_pass(spec, streams, parsed, options, nullptr, &untraced_samples);
  double traced_wall = 0.0;
  {
    Scope root(&tracer, "session.replay");
    traced_wall = session_pass(spec, streams, parsed, options, &tracer, &samples);
  }
  const Summary apply_s = summarize(samples.apply_us);
  out.set("session.apply_us_p50", apply_s.p50, "us");
  out.set("session.apply_us_p99", apply_s.p99, "us");
  out.set("session.estimate_first_us_p99", summarize(samples.first_us).p99, "us");
  out.set("session.estimate_repeat_us_p50", summarize(samples.repeat_us).p50, "us");
  out.set("session.cache_hit_rate",
          samples.cache_lookups > 0
              ? static_cast<double>(samples.cache_hits) / static_cast<double>(samples.cache_lookups)
              : 0.0,
          "ratio");
  const Tracer::Totals est = tracer.totals_for("predict.estimate");
  out.set("predict.estimate_calls", static_cast<double>(est.count), "count");
  out.set("predict.estimate_s", est.total_s, "s");
  out.set("predict.estimate_ns_per_call",
          est.count > 0 ? est.total_s * 1e9 / static_cast<double>(est.count) : 0.0, "ns");
  out.set("predict.insert_calls", static_cast<double>(tracer.totals_for("predict.insert").count),
          "count");
  out.set("predict.insert_s", tracer.totals_for("predict.insert").total_s, "s");
  out.set("journal.append_us_p99", summarize(samples.append_us).p99, "us");
  out.set("journal.commit_us_p99", summarize(samples.commit_us).p99, "us");
  out.set("journal.snapshot_bytes_max", samples.snapshot_bytes_max, "bytes");
  out.set("trace.wall_untraced_s", untraced_wall, "s");
  out.set("trace.wall_traced_s", traced_wall, "s");
  out.set("trace.overhead_s", traced_wall - untraced_wall, "s");

  // Server: handle_line on a fresh session; replies must match the run's.
  for (const Stream& s : streams) {
    ServedSession served(spec, s.workload);
    auto session = served.session(s.workload, *served.predictor);
    rtp::ServerOptions server_options;
    server_options.threads = 1;
    rtp::ServiceServer server(*session, server_options);
    bool quit = false;
    long long mismatches = 0;
    for (std::size_t k = 0; k < s.lines.size(); ++k) {
      Scope span(&tracer, "server.handle_line", k);
      if (server.handle_line(s.lines[k], k + 1, &quit) != s.expected[k]) ++mismatches;
    }
    out.attempted += static_cast<long long>(s.lines.size());
    if (mismatches > 0)
      out.fail("in-process server replay of " + s.spec.key + ": " + std::to_string(mismatches) +
                   " replies differ",
               mismatches);
  }

  // Router: the streams interleaved line by line through an in-process
  // Router over fresh partitions.
  std::vector<double> hop_us;
  {
    auto fleet = launch(spec, streams, options, 1000);
    fleet->router->stop();  // the in-process Router takes its place
    rtp::RouterOptions router_options;
    router_options.threads = 1;
    rtp::Router router(partition_map(streams, fleet->worker_ports), router_options);
    std::vector<std::size_t> next(streams.size(), 0);
    long long mismatches = 0, sent = 0;
    bool quit = false;
    for (bool more = true; more;) {
      more = false;
      for (std::size_t si = 0; si < streams.size(); ++si) {
        const std::size_t k = next[si];
        if (k >= streams[si].lines.size()) continue;
        more = true;
        ++next[si];
        ++sent;
        Scope span(&tracer, "router.handle_line", (static_cast<std::uint64_t>(si) << 32) | k);
        const std::int64_t a = Tracer::now_ns();
        const std::string reply =
            router.handle_line(streams[si].lines[k], static_cast<std::size_t>(sent), &quit);
        hop_us.push_back(static_cast<double>(Tracer::now_ns() - a) * 1e-3);
        if (reply != streams[si].expected[k]) ++mismatches;
      }
    }
    out.attempted += sent;
    if (mismatches > 0)
      out.fail("in-process router replay: " + std::to_string(mismatches) + " replies differ",
               mismatches);
  }
  const Summary hop = summarize(hop_us);
  out.set("router.hop_us_p50", hop.p50, "us");
  out.set("router.hop_us_p99", hop.p99, "us");
  out.set("trace.spans", static_cast<double>(tracer.span_count()), "count");

  const std::string spans_path = options.out_dir + "/spans-" + options.workload + "-seed" +
                                 std::to_string(options.seed) + ".jsonl";
  tracer.write_jsonl(spans_path);
  out.details.str("spans_file", spans_path)
      .num("session.apply_self_s", tracer.totals_for("session.apply").self_s)
      .num("session.estimate_self_s", tracer.totals_for("session.estimate").self_s)
      .num("server.handle_line_s", tracer.totals_for("server.handle_line").total_s)
      .num("router.handle_line_s", tracer.totals_for("router.handle_line").total_s);
}

}  // namespace perfbench
