// Online service throughput: replay recorded scheduler sessions through
// OnlineSession and measure the estimate path.
//
// For each site, the batch scheduler (live on user maxima, as in the
// paper's wait-time setup) is recorded once into an event stream; the
// stream is then replayed open-loop through a fresh session, issuing 1 +
// --repeats ESTIMATE queries per submission.  Reported per site:
// queries/sec, the p50/p95/p99/max per-query latency from the
// log-bucketed histogram, and the share of queries answered from an
// existing shadow booking (Hit Rate).  The bit-identity of these answers
// with the recompute-per-query method is a ctest
// (SessionReplayAnswers in tests/test_service_session.cpp).
//
// Results also persist as JSON (--json, default BENCH_service.json): one
// record per site with QPS and the latency quantiles.
//
//   ./bench_service_throughput [--scale 0.02] [--repeats 3] [--policy backfill]
//                              [--predictor max] [--compression 0] [--csv]
//                              [--json BENCH_service.json]
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "core/args.hpp"
#include "core/error.hpp"
#include "core/strings.hpp"
#include "core/table.hpp"
#include "predict/factory.hpp"
#include "predict/simple.hpp"
#include "sched/policy.hpp"
#include "service/replay.hpp"
#include "workload/synthetic.hpp"

int main(int argc, char** argv) {
  try {
    rtp::ArgParser args(argc, argv);
    args.add_option("scale", "fraction of each trace's job count", "0.02");
    args.add_option("repeats", "extra ESTIMATE queries per submission", "3");
    args.add_option("policy", "fcfs|lwf|backfill|easy", "backfill");
    args.add_option("predictor", "actual|max|stf|gibbons|downey-avg|downey-med", "max");
    args.add_option("compression", "simulated seconds per wall second (0 = unpaced)", "0");
    args.add_flag("csv", "emit CSV");
    args.add_option("json", "persist results to this JSON file ('' = skip)",
                    "BENCH_service.json");
    if (!args.parse()) return 0;

    const auto policy = rtp::make_policy(rtp::policy_kind_from_string(args.str("policy")));
    const auto predictor_kind = rtp::predictor_kind_from_string(args.str("predictor"));
    rtp::ReplayOptions replay_options;
    replay_options.time_compression = args.real("compression");
    replay_options.extra_queries = static_cast<int>(args.integer("repeats"));

    rtp::TablePrinter table({"Workload", "Events", "Queries", "Queries/s", "p50 (us)",
                             "p95 (us)", "p99 (us)", "max (us)", "Hit Rate"});
    std::ostringstream json_runs;
    for (const rtp::Workload& w : rtp::paper_workloads(args.real("scale"))) {
      rtp::MaxRuntimePredictor live(w);
      const rtp::RecordedRun recorded = rtp::record_session_log(w, *policy, live);

      auto predictor = rtp::make_runtime_estimator(predictor_kind, w);
      rtp::SessionOptions session_options;
      session_options.name = w.name();
      rtp::OnlineSession session(w.machine_nodes(), *policy, *predictor, session_options);
      const rtp::ReplayReport report =
          rtp::replay_through_session(session, recorded.events, replay_options);

      const std::uint64_t lookups = report.cache_hits + report.cache_misses;
      const double hit_rate =
          lookups > 0
              ? static_cast<double>(report.cache_hits) / static_cast<double>(lookups)
              : 0.0;
      table.add_row({w.name(), std::to_string(report.events), std::to_string(report.queries),
                     rtp::format_double(report.queries_per_sec, 0),
                     rtp::format_double(report.latency_us.p50(), 1),
                     rtp::format_double(report.latency_us.p95(), 1),
                     rtp::format_double(report.latency_us.p99(), 1),
                     rtp::format_double(report.latency_us.max(), 1),
                     rtp::format_double(hit_rate, 3)});

      if (json_runs.tellp() > 0) json_runs << ",";
      json_runs << "\n    {\"site\": \"" << w.name() << "\", \"events\": " << report.events
                << ", \"queries\": " << report.queries << ", \"qps\": "
                << rtp::format_double(report.queries_per_sec, 1)
                << ", \"p50_us\": " << rtp::format_double(report.latency_us.p50(), 3)
                << ", \"p95_us\": " << rtp::format_double(report.latency_us.p95(), 3)
                << ", \"p99_us\": " << rtp::format_double(report.latency_us.p99(), 3)
                << ", \"max_us\": " << rtp::format_double(report.latency_us.max(), 3)
                << ", \"hit_rate\": " << rtp::format_double(hit_rate, 3) << "}";
    }

    if (args.flag("csv")) {
      table.print_csv(std::cout);
    } else {
      std::cout << "Online wait-time service throughput (1 + repeats queries per submit)\n";
      table.print(std::cout);
    }

    const std::string json_path = args.str("json");
    if (!json_path.empty()) {
      std::ofstream json(json_path, std::ios::trunc);
      json << "{\n  \"bench\": \"service_throughput\",\n  \"policy\": \""
           << args.str("policy") << "\",\n  \"predictor\": \"" << args.str("predictor")
           << "\",\n  \"scale\": " << rtp::format_double(args.real("scale"), 4)
           << ",\n  \"repeats\": " << args.integer("repeats") << ",\n  \"runs\": ["
           << json_runs.str() << "\n  ]\n}\n";
      RTP_CHECK(json.good(), "cannot write " + json_path);
      std::cerr << "bench_service_throughput: results persisted to " << json_path
                << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "bench_service_throughput: " << e.what() << "\n";
    return 1;
  }
}
