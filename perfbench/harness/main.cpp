// perfbench — the repository benchmark harness.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --out <dir> --bin <dir> [--source <id>]
//
// Runs one workload (offline-deep, online-durable), checks its answers,
// writes a result record with provenance to <out>/result-*.json and prints
// one metric per line followed by the result as a single JSON line.  Exits
// 1 when a correctness gate fails, 2 on a usage or set-up error.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace perfbench {
namespace {

using MetricList = std::vector<std::pair<std::string, std::string>>;

const MetricList& end_to_end_metrics() {
  static const MetricList list = {
      {"setup_s", "s"},
      {"wall_s", "s"},
      {"peak_rss_mb", "MiB"},
      {"estimate_p50_us", "us"},
  };
  return list;
}

const MetricList& per_layer_metrics() {
  static const MetricList list = {
      {"predict.estimate_calls", "count"},
      {"predict.estimate_s", "s"},
      {"predict.estimate_ns_per_call", "ns"},
      {"predict.insert_calls", "count"},
      {"predict.insert_s", "s"},
      {"sched.reestimate_all_calls", "count"},
      {"sched.reestimate_all_s", "s"},
      {"sched.jobs_in_system_at_submit_mean", "count"},
      {"sched.select_starts_calls", "count"},
      {"sched.select_starts_s", "s"},
      {"sched.predict_start_calls", "count"},
      {"sched.predict_start_s", "s"},
      {"sim.self_s", "s"},
      {"waitpred.state_copy_s", "s"},
      {"shadow.rebuilds", "count"},
      {"shadow.repairs", "count"},
      {"shadow.bookings", "count"},
      {"shadow.reused", "count"},
      {"shadow.bookings_per_rebuild", "count"},
      {"shadow.repair_share", "ratio"},
      {"session.apply_us_p50", "us"},
      {"session.apply_us_p99", "us"},
      {"session.estimate_first_us_p99", "us"},
      {"session.estimate_repeat_us_p50", "us"},
      {"session.cache_hit_rate", "ratio"},
      {"protocol.parse_ns_per_line", "ns"},
      {"protocol.format_ns_per_line", "ns"},
      {"server.request_p50_us", "us"},
      {"server.request_p99_us", "us"},
      {"server.estimate_p99_us", "us"},
      {"server.shed", "count"},
      {"journal.append_us_p99", "us"},
      {"journal.commit_us_p99", "us"},
      {"journal.records", "count"},
      {"journal.bytes", "bytes"},
      {"journal.syncs", "count"},
      {"journal.snapshots", "count"},
      {"journal.snapshot_bytes_max", "bytes"},
      {"router.hop_us_p50", "us"},
      {"router.hop_us_p99", "us"},
      {"router.forwarded", "count"},
      {"router.failovers", "count"},
      {"workload.generate_s", "s"},
      {"replay.record_s", "s"},
      {"loadgen.sent", "count"},
      {"loadgen.ok", "count"},
      {"loadgen.err", "count"},
      {"loadgen.late_p99_us", "us"},
      {"trace.wall_untraced_s", "s"},
      {"trace.wall_traced_s", "s"},
      {"trace.overhead_s", "s"},
      {"trace.spans", "count"},
  };
  return list;
}

const std::set<std::string>& workloads() {
  static const std::set<std::string> names = {"offline-deep", "online-durable"};
  return names;
}

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "perfbench: " << message
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
               "--out <dir> --bin <dir> [--source <id>]\n";
  std::exit(2);
}

int run(int argc, char** argv) {
  RunOptions options;
  std::string source = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--out") {
      options.out_dir = value;
    } else if (flag == "--bin") {
      options.bin_dir = value;
    } else if (flag == "--source") {
      source = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload || workloads().count(options.workload) == 0)
    usage("--workload must be offline-deep or online-durable");
  if (options.out_dir.empty() || options.bin_dir.empty()) usage("--out and --bin are required");
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");

  Outcome out = options.workload.rfind("offline", 0) == 0 ? run_offline(options)
                                                          : run_online(options);

  // Every declared metric is reported, under a valid name and its unit;
  // per-layer metrics of layers the workload does not touch read 0.
  const MetricList& declared = options.trace ? per_layer_metrics() : end_to_end_metrics();
  JsonObject metrics;
  for (const auto& [name, unit] : declared) {
    if (!valid_metric_name(name)) throw std::logic_error("bad metric name " + name);
    const auto it = out.metrics.find(name);
    if (it == out.metrics.end() && !options.trace)
      throw std::logic_error("workload did not report " + name);
    const double value = it == out.metrics.end() ? 0.0 : it->second.first;
    if (it != out.metrics.end() && it->second.second != unit)
      throw std::logic_error(name + " reported in " + it->second.second + ", declared " + unit);
    std::cout << name << " = " << json_number(value) << " " << unit << "\n";
    metrics.raw(name, JsonObject().num("value", value).str("unit", unit).dump());
  }
  for (const auto& [name, v] : out.metrics) {
    bool known = false;
    for (const auto& d : declared) known = known || d.first == name;
    if (!known) throw std::logic_error("undeclared metric " + name);
  }
  for (const std::string& e : out.errors) std::cout << "correctness: " << e << "\n";

  JsonObject provenance;
  provenance.str("workload", options.workload)
      .integer("seed", static_cast<long long>(options.seed))
      .num("seconds", options.seconds)
      .boolean("trace", options.trace)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .str("cxx_flags", PERFBENCH_CXX_FLAGS)
      .str("compiler", __VERSION__)
      .integer("cores", static_cast<long long>(std::thread::hardware_concurrency()))
      .str("source", source)
      .raw("workload_details", out.details.dump());

  const bool correct = out.errors.empty();
  JsonObject result;
  result.boolean("correct", correct)
      .integer("attempted", std::max(out.attempted, 1LL))
      .integer("failed", out.failed)
      .raw("metrics", metrics.dump());

  const std::string record = options.out_dir + "/result-" + options.workload + "-seed" +
                             std::to_string(options.seed) + "-trace" +
                             (options.trace ? "1" : "0") + ".json";
  std::ofstream(record) << JsonObject()
                               .raw("provenance", provenance.dump())
                               .raw("result", result.dump())
                               .dump()
                        << "\n";
  std::cout << "provenance: " << provenance.dump() << "\n";
  std::cout << result.dump() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
