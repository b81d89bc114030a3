// Online workload pieces shared by the served run (online.cpp,
// online_run.cpp) and the in-process traced replay (inproc.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "procs.hpp"
#include "sched/estimator.hpp"
#include "sched/policy.hpp"
#include "service/router.hpp"
#include "service/session.hpp"
#include "workload/synthetic.hpp"
#include "workload/workload.hpp"

namespace perfbench {

struct StreamSpec {
  std::string key;   ///< routing key and file-name stem
  std::string site;
  rtp::SyntheticConfig (*config)(double);
  double scale = 0.1;
  double load = 0.25;  ///< offered load the arrivals are rescaled to
};

/// The online workload: one keyed stream per site, one connection each,
/// through rtprouter to one journaled rtpd partition per stream (rtpd's
/// default --fsync interval and --snapshot-every 256), one ESTIMATE after
/// every SUBMIT.
struct OnlineSpec {
  std::string name;
  std::vector<StreamSpec> streams;
  std::string predictor;        ///< rtpd --predictor
  std::string policy;           ///< rtpd --policy
  std::vector<double> ladder;   ///< aggregate lines per second, ascending
  double reference_rate = 0.0;  ///< the first ladder step; latency metrics
  int reference_passes = 1;     ///< passes at the reference rate (median)
  int unpaced_passes = 1;       ///< passes for wall_s (median)
};

/// ESTIMATE p95 limit (from the intended send time) that defines the
/// ladder's knee.
inline constexpr double kLatencyLimitUs = 10000.0;

const OnlineSpec& online_spec(const std::string& name);

struct Stream {
  StreamSpec spec;
  std::string trace_path;
  rtp::Workload workload;
  std::vector<std::string> lines;     ///< protocol lines, no newline
  std::vector<bool> is_estimate;      ///< ESTIMATE line (else an event)
  std::vector<std::string> expected;  ///< in-process replies
};

struct SetupTimes {
  double generate_s = 0.0;
  double record_s = 0.0;
};

/// Generate each stream's trace (seeded) and write it where rtpd reads it;
/// with `record`, also record the batch schedule as keyed protocol lines
/// with an ESTIMATE after every SUBMIT.
std::vector<Stream> prepare_streams(const OnlineSpec& spec, std::uint64_t seed,
                                    const std::string& dir, SetupTimes* times, bool record);

/// Policy and predictor built the way rtpd builds them from --trace.
struct ServedSession {
  ServedSession(const OnlineSpec& spec, const rtp::Workload& workload);
  std::unique_ptr<rtp::OnlineSession> session(const rtp::Workload& workload,
                                              rtp::RuntimeEstimator& estimator) const;
  std::unique_ptr<rtp::SchedulerPolicy> policy;
  std::unique_ptr<rtp::RuntimeEstimator> predictor;
};

/// Fill Stream::expected from ServiceServer::handle_line on a fresh session.
void compute_expected(const OnlineSpec& spec, std::vector<Stream>& streams);

struct Fleet {
  std::vector<std::unique_ptr<Child>> workers;  ///< one rtpd per stream
  std::vector<std::uint16_t> worker_ports;
  std::unique_ptr<Child> router;
  std::uint16_t front_port = 0;  ///< the router, where clients connect
  ~Fleet();
  double peak_rss_mb() const;
};

/// Stream i's key assigned to partition i at 127.0.0.1:ports[i].
rtp::PartitionMap partition_map(const std::vector<Stream>& streams,
                                const std::vector<std::uint16_t>& ports);

std::unique_ptr<Fleet> launch(const OnlineSpec& spec, const std::vector<Stream>& streams,
                              const RunOptions& options, int pass);

struct ConnectionTrace {
  std::vector<double> intended_us, sent_us, done_us;  ///< from the pass start; -1 = never
  std::vector<std::string> replies;
  bool transport_error = false;
};

struct PassTrace {
  std::vector<ConnectionTrace> connections;
  double wall_s = 0.0;  ///< pass start to the last reply
};

/// One connection per stream, open loop at `rate` aggregate lines per
/// second (0 = unpaced: as fast as the server takes them).
PassTrace run_pass(const std::vector<Stream>& streams, std::uint16_t port, double rate);

struct PassStats {
  long long sent = 0, ok = 0, err = 0, failed = 0;
  bool backlog_grew = false;
  bool transport_error = false;
  Summary estimate, event, late;
  double wall_s = 0.0;
};

PassStats score_pass(const std::vector<Stream>& streams, const PassTrace& pass);

/// key=value fields of a STATS-style reply from a fresh connection.
std::map<std::string, std::string> stats_fields(std::uint16_t port, const std::string& verb);
double field(const std::map<std::string, std::string>& fields, const std::string& key);

/// In-process layer replays for the traced run (inproc.cpp); fills
/// per-layer metrics and checks replies.
void trace_in_process(const OnlineSpec& spec, const std::vector<Stream>& streams,
                      const RunOptions& options, Outcome& out);

}  // namespace perfbench
