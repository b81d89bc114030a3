#include "service/replay.hpp"

#include <chrono>
#include <ostream>
#include <thread>

#include "core/error.hpp"

namespace rtp {
namespace {

/// SimObserver that serializes the batch simulation into protocol requests.
class RecordingObserver final : public SimObserver {
 public:
  explicit RecordingObserver(std::vector<Request>& out) : out_(out) {}

  void on_submit(Seconds now, const SystemState& state, const Job& job) override {
    (void)state;
    Request r;
    r.kind = RequestKind::Submit;
    r.time = now;
    r.id = job.id;
    r.job = job;
    r.job.submit = now;
    out_.push_back(std::move(r));
  }
  void on_start(const Job& job, Seconds start) override {
    out_.push_back(event(RequestKind::Start, start, job.id));
  }
  void on_finish(const Job& job, Seconds end) override {
    out_.push_back(event(RequestKind::Finish, end, job.id));
  }
  void on_fail(const Job& job, Seconds when, int attempt) override {
    (void)attempt;
    out_.push_back(event(RequestKind::Fail, when, job.id));
  }
  void on_node_down(Seconds when, int down_nodes) override {
    Request r;
    r.kind = RequestKind::NodeDown;
    r.time = when;
    r.nodes = down_nodes - prev_down_;
    prev_down_ = down_nodes;
    out_.push_back(std::move(r));
  }
  void on_node_up(Seconds when, int down_nodes) override {
    Request r;
    r.kind = RequestKind::NodeUp;
    r.time = when;
    r.nodes = prev_down_ - down_nodes;
    prev_down_ = down_nodes;
    out_.push_back(std::move(r));
  }

 private:
  static Request event(RequestKind kind, Seconds t, JobId id) {
    Request r;
    r.kind = kind;
    r.time = t;
    r.id = id;
    return r;
  }

  std::vector<Request>& out_;
  int prev_down_ = 0;
};

}  // namespace

RecordedRun record_session_log(const Workload& workload, const SchedulerPolicy& policy,
                               RuntimeEstimator& scheduler_estimator,
                               const SimOptions& options) {
  RecordedRun run;
  RecordingObserver recorder(run.events);
  run.batch = simulate(workload, policy, scheduler_estimator, &recorder, options);
  return run;
}

ReplayReport replay_through_session(OnlineSession& session,
                                    const std::vector<Request>& events,
                                    const ReplayOptions& options) {
  using Clock = std::chrono::steady_clock;
  RTP_CHECK(options.time_compression >= 0.0, "time_compression must be >= 0");
  RTP_CHECK(options.extra_queries >= 0, "extra_queries must be >= 0");

  ReplayReport report;
  const auto wall_start = Clock::now();
  const Seconds sim_start = events.empty() ? 0.0 : events.front().time;

  auto timed_estimate = [&](JobId id) {
    const auto t0 = Clock::now();
    session.estimate_wait(id);
    const auto dt = std::chrono::duration<double, std::micro>(Clock::now() - t0);
    report.latency_us.add(dt.count());
    ++report.queries;
  };

  for (const Request& ev : events) {
    if (options.time_compression > 0.0) {
      const double wall_target = (ev.time - sim_start) / options.time_compression;
      std::this_thread::sleep_until(wall_start + std::chrono::duration<double>(wall_target));
    }
    switch (ev.kind) {
      case RequestKind::Submit:
        session.submit(ev.job, ev.time);
        if (options.estimate_on_submit)
          for (int q = 0; q <= options.extra_queries; ++q) timed_estimate(ev.id);
        break;
      case RequestKind::Start: session.start(ev.id, ev.time); break;
      case RequestKind::Finish: session.finish(ev.id, ev.time); break;
      case RequestKind::Cancel: session.cancel(ev.id, ev.time); break;
      case RequestKind::Fail: session.fail(ev.id, ev.time); break;
      case RequestKind::NodeDown: session.node_down(ev.nodes, ev.time); break;
      case RequestKind::NodeUp: session.node_up(ev.nodes, ev.time); break;
      default:
        fail("replay stream contains a non-event request");
    }
    ++report.events;
  }

  report.wall_seconds = std::chrono::duration<double>(Clock::now() - wall_start).count();
  report.queries_per_sec =
      report.wall_seconds > 0.0 ? static_cast<double>(report.queries) / report.wall_seconds
                                : 0.0;
  report.cache_hits = session.counters().cache_hits;
  report.cache_misses = session.counters().cache_misses;
  return report;
}

void write_event_log(std::ostream& out, const std::vector<Request>& events) {
  out << "# rtp-session-log v1 (pipe into: rtpd --mode stdin)\n";
  for (const Request& ev : events) out << format_request(ev) << "\n";
  out.flush();
  // A truncated event log replays as a silently shorter session; surface
  // short writes (closed pipe, ENOSPC) as a structured error instead.
  RTP_CHECK(out.good(),
            "event log write failed after " + std::to_string(events.size()) +
                " events (short write or no space on device)");
}

}  // namespace rtp
