#include "service/session.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <sstream>

#include "core/error.hpp"
#include "core/strings.hpp"
#include "sched/forward_sim.hpp"
#include "service/protocol.hpp"
#include "workload/fields.hpp"

namespace rtp {

OnlineSession::OnlineSession(int machine_nodes, const SchedulerPolicy& policy,
                             RuntimeEstimator& predictor, SessionOptions options)
    : options_(std::move(options)),
      policy_(policy),
      predictor_(predictor),
      state_(machine_nodes),
      shadow_(machine_nodes, policy_, predictor_) {}

void OnlineSession::advance_time(Seconds t) {
  RTP_CHECK(t >= now_, "event time went backwards (session time " +
                           std::to_string(now_) + ", event " + std::to_string(t) + ")");
}

void OnlineSession::bump_version() {
  ++version_;
  ++counters_.events;
}

OnlineSession::JobRecord& OnlineSession::known(JobId id) {
  auto it = jobs_.find(id);
  RTP_CHECK(it != jobs_.end(), "unknown job id " + std::to_string(id));
  return it->second;
}

void OnlineSession::submit(const Job& job, Seconds t) {
  advance_time(t);
  RTP_CHECK(job.id != kInvalidJob, "submit: job id is invalid");
  RTP_CHECK(jobs_.find(job.id) == jobs_.end() && !is_retired(job.id),
            "duplicate job id " + std::to_string(job.id));
  RTP_CHECK(job.nodes >= 1, "submit: nodes must be >= 1");
  RTP_CHECK(job.nodes <= state_.machine_nodes(),
            "submit: job does not fit on the machine at all");
  RTP_CHECK(job.runtime >= 0.0, "submit: negative runtime");

  now_ = t;
  JobRecord record;
  record.job = std::make_unique<Job>(job);
  record.job->submit = t;
  record.submit = t;
  record.queued = true;
  const Job* stable = record.job.get();
  jobs_.emplace(job.id, std::move(record));
  // Estimates in the live mirror are refreshed per query (reestimate_all on
  // a snapshot, or the shadow schedule's own refresh); the stored value is
  // never read before then.
  state_.enqueue(*stable, t, 0.0);
  shadow_.on_submit(*stable, t);

  if (!saw_event_) first_submit_ = t;
  saw_event_ = true;
  if (!any_job_seen_ || job.id > max_id_seen_) max_id_seen_ = job.id;
  any_job_seen_ = true;
  bump_version();
}

void OnlineSession::start(JobId id, Seconds t) {
  advance_time(t);
  JobRecord& record = known(id);
  RTP_CHECK(record.queued, "start: job " + std::to_string(id) + " is not queued");
  RTP_CHECK(record.job->nodes <= state_.free_nodes(),
            "start: not enough free nodes for job " + std::to_string(id));

  now_ = t;
  state_.start_job(id, t);
  shadow_.on_start(id, t);
  record.queued = false;
  record.running = true;
  record.attempt_start = t;
  if (record.attempts == 0) record.first_start = t;
  ++record.attempts;
  ++attempts_started_;

  // Score the estimate made at submission, exactly as WaitTimeObserver does.
  auto it = predicted_wait_.find(id);
  if (it != predicted_wait_.end()) {
    const Seconds actual_wait = t - record.submit;
    error_.add(std::fabs(it->second - actual_wait));
    signed_error_.add(it->second - actual_wait);
    waits_.add(actual_wait);
    predicted_wait_.erase(it);
  }
  bump_version();
}

void OnlineSession::finish(JobId id, Seconds t) {
  advance_time(t);
  JobRecord& record = known(id);
  RTP_CHECK(record.running, "finish: job " + std::to_string(id) + " is not running");

  now_ = t;
  state_.finish_job(id);
  shadow_.on_finish(id);
  record.running = false;
  record.finished = true;
  predictor_.job_completed(*record.job, t);
  completions_.emplace_back(id, t);
  total_work_ += record.job->work();
  ++completed_;
  last_completion_ = std::max(last_completion_, t);
  bump_version();
}

void OnlineSession::cancel(JobId id, Seconds t) {
  advance_time(t);
  JobRecord& record = known(id);
  RTP_CHECK(record.queued, "cancel: job " + std::to_string(id) + " is not queued");

  now_ = t;
  auto& queue = state_.mutable_queue();
  for (auto it = queue.begin(); it != queue.end(); ++it) {
    if (it->id() == id) {
      queue.erase(it);
      break;
    }
  }
  shadow_.on_cancel(id, t);
  record.queued = false;
  record.canceled = true;
  predicted_wait_.erase(id);
  ++counters_.canceled;
  // A canceled job that never started contributes nothing beyond the
  // cancellation count (result() reports the kNoTime/0 defaults for it), so
  // its record — and the Job it owns — can be dropped.  Without this,
  // submit→cancel churn grows jobs_ and every snapshot without bound.  The
  // shadow's mirror entry was erased above, so no dangling Job* remains.
  if (record.attempts == 0) retire_record(id);
  bump_version();
}

void OnlineSession::retire_record(JobId id) {
  jobs_.erase(id);
  // Coalesce into the inclusive ranges: extend a neighbour or start a new
  // range, then merge with the successor when the gap closed.
  auto next = retired_.upper_bound(id);
  auto prev = next == retired_.begin() ? retired_.end() : std::prev(next);
  if (prev != retired_.end() && prev->second + 1 == id) {
    prev->second = id;
  } else {
    prev = retired_.emplace(id, id).first;
    next = std::next(prev);
  }
  if (next != retired_.end() && next->first == prev->second + 1) {
    prev->second = next->second;
    retired_.erase(next);
  }
}

bool OnlineSession::is_retired(JobId id) const {
  const auto next = retired_.upper_bound(id);
  if (next == retired_.begin()) return false;
  return std::prev(next)->second >= id;
}

void OnlineSession::fail(JobId id, Seconds t) {
  advance_time(t);
  JobRecord& record = known(id);
  RTP_CHECK(record.running, "fail: job " + std::to_string(id) + " is not running");

  now_ = t;
  const Seconds elapsed = std::max<Seconds>(0.0, t - record.attempt_start);
  wasted_work_ += static_cast<double>(record.job->nodes) * elapsed;
  ++failures_;
  state_.finish_job(id);
  record.running = false;
  // Back to the queue tail immediately: the mirror has no backoff clock of
  // its own; the mirrored scheduler's next START decides when it runs again.
  state_.enqueue(*record.job, t, 0.0);
  shadow_.on_fail(id, t);
  record.queued = true;
  ++retries_;
  bump_version();
}

void OnlineSession::node_down(int nodes, Seconds t) {
  advance_time(t);
  RTP_CHECK(nodes > 0, "node_down: node count must be positive");
  RTP_CHECK(nodes <= state_.free_nodes(),
            "node_down: not enough free nodes; evict running jobs first (FAIL)");
  now_ = t;
  state_.take_nodes_down(nodes);
  shadow_.on_node_down(nodes);
  ++node_outages_;
  bump_version();
}

void OnlineSession::node_up(int nodes, Seconds t) {
  advance_time(t);
  RTP_CHECK(nodes > 0, "node_up: node count must be positive");
  RTP_CHECK(nodes <= state_.down_nodes(), "node_up: more nodes than are down");
  now_ = t;
  state_.bring_nodes_up(nodes);
  shadow_.on_node_up(nodes);
  bump_version();
}

Seconds OnlineSession::estimate_wait(JobId id) {
  JobRecord& record = known(id);
  RTP_CHECK(record.queued, "estimate: job " + std::to_string(id) + " is not queued");
  ++counters_.queries;

  const std::uint64_t reused_before = shadow_.counters().reused;
  const Seconds expected = shadow_.predicted_start(now_, id) - now_;
  if (shadow_.counters().reused > reused_before)
    ++counters_.cache_hits;
  else
    ++counters_.cache_misses;
  // The first estimate after a submission is the paper's "prediction at
  // submit time"; it is scored against the actual wait at START.
  if (record.attempts == 0 && record_predictions_) predicted_wait_.emplace(id, expected);
  return expected;
}

WaitInterval OnlineSession::estimate_interval(JobId id, double optimistic_scale,
                                              double pessimistic_scale) {
  JobRecord& record = known(id);
  RTP_CHECK(record.queued, "estimate: job " + std::to_string(id) + " is not queued");
  ++counters_.queries;
  ++counters_.cache_misses;  // the two band replays always run

  // The point estimate comes from the shadow's bookings; only the two
  // scaled replays run over the refreshed mirror.
  const Seconds expected = shadow_.predicted_start(now_, id) - now_;
  const WaitInterval band =
      predict_wait_interval_at(shadow_.refreshed_state(now_), policy_, now_, id, expected,
                               optimistic_scale, pessimistic_scale);
  if (record.attempts == 0 && record_predictions_)
    predicted_wait_.emplace(id, band.expected);
  return band;
}

Seconds OnlineSession::recorded_prediction(JobId id) const {
  const auto it = predicted_wait_.find(id);
  return it == predicted_wait_.end() ? kNoTime : it->second;
}

void OnlineSession::restore_prediction(JobId id, Seconds wait) {
  const auto it = jobs_.find(id);
  RTP_CHECK(it != jobs_.end(), "restore_prediction: unknown job id " + std::to_string(id));
  RTP_CHECK(it->second.attempts == 0,
            "restore_prediction: job " + std::to_string(id) + " already started");
  predicted_wait_.emplace(id, wait);
}

namespace {

// v2 added the "retired" ranges section (pruned canceled-job ids).
constexpr std::string_view kSnapshotHeader = "rtp-session-snapshot v2";

const char* bool_digit(bool b) { return b ? "1" : "0"; }

void set_field(Job& job, Characteristic c, std::string value) {
  switch (c) {
    case Characteristic::Type: job.type = std::move(value); return;
    case Characteristic::Queue: job.queue = std::move(value); return;
    case Characteristic::Class: job.job_class = std::move(value); return;
    case Characteristic::User: job.user = std::move(value); return;
    case Characteristic::Script: job.script = std::move(value); return;
    case Characteristic::Executable: job.executable = std::move(value); return;
    case Characteristic::Arguments: job.arguments = std::move(value); return;
    case Characteristic::NetworkAdaptor: job.network_adaptor = std::move(value); return;
    case Characteristic::Nodes: break;
  }
  fail("snapshot job field must be categorical");
}

void write_stats(std::ostream& out, const char* label, const RunningStats& stats) {
  const RunningStatsState s = stats.state();
  out << "stats " << label << " " << s.count << " " << format_double_bits(s.mean) << " "
      << format_double_bits(s.m2) << " " << format_double_bits(s.sum) << " "
      << format_double_bits(s.min) << " " << format_double_bits(s.max) << "\n";
}

/// Reader that enforces line structure; every snapshot defect becomes a
/// structured rtp::Error naming the offending line.
class SnapshotReader {
 public:
  explicit SnapshotReader(std::istream& in) : in_(in) {}

  std::vector<std::string_view> expect(std::string_view keyword, std::size_t min_tokens) {
    RTP_CHECK(std::getline(in_, line_),
              "snapshot truncated; expected '" + std::string(keyword) + "' line");
    ++line_number_;
    const auto tokens = split_whitespace(line_);
    RTP_CHECK(!tokens.empty() && tokens[0] == keyword && tokens.size() >= min_tokens,
              "snapshot line " + std::to_string(line_number_) + ": expected '" +
                  std::string(keyword) + "' with >= " + std::to_string(min_tokens) +
                  " tokens, got '" + line_ + "'");
    return tokens;
  }

  const std::string& line() const { return line_; }
  std::size_t line_number() const { return line_number_; }

  double bits(std::string_view token) const {
    try {
      return parse_double_bits(token);
    } catch (const ProtocolError& e) {
      fail("snapshot line " + std::to_string(line_number_) + ": " + e.what());
    }
  }

  long long integer(std::string_view token) const {
    return parse_int(token, "snapshot line " + std::to_string(line_number_));
  }

  std::size_t size(std::string_view token) const {
    const long long n = integer(token);
    RTP_CHECK(n >= 0, "snapshot line " + std::to_string(line_number_) + ": negative count");
    return static_cast<std::size_t>(n);
  }

  RunningStats stats(const std::vector<std::string_view>& tokens) const {
    RTP_CHECK(tokens.size() == 8,
              "snapshot line " + std::to_string(line_number_) + ": malformed stats line");
    RunningStatsState s;
    s.count = size(tokens[2]);
    s.mean = bits(tokens[3]);
    s.m2 = bits(tokens[4]);
    s.sum = bits(tokens[5]);
    s.min = bits(tokens[6]);
    s.max = bits(tokens[7]);
    return RunningStats::from_state(s);
  }

 private:
  std::istream& in_;
  std::string line_;
  std::size_t line_number_ = 0;
};

}  // namespace

void OnlineSession::serialize(std::ostream& out) const {
  out << kSnapshotHeader << "\n";
  out << "policy " << policy_.name() << "\n";
  out << "predictor " << predictor_.name() << "\n";
  out << "name " << options_.name << "\n";
  out << "nodes " << state_.machine_nodes() << "\n";
  out << "clock " << format_double_bits(now_) << " " << format_double_bits(first_submit_)
      << " " << format_double_bits(last_completion_) << " " << bool_digit(saw_event_)
      << "\n";
  out << "version " << version_ << "\n";
  out << "ids " << max_id_seen_ << " " << bool_digit(any_job_seen_) << "\n";
  out << "counters " << counters_.events << " " << counters_.canceled << "\n";
  out << "totals " << completed_ << " " << failures_ << " " << retries_ << " "
      << attempts_started_ << " " << node_outages_ << " " << format_double_bits(total_work_)
      << " " << format_double_bits(wasted_work_) << "\n";
  write_stats(out, "error", error_);
  write_stats(out, "waits", waits_);
  write_stats(out, "signed", signed_error_);

  std::vector<JobId> ids;
  ids.reserve(jobs_.size());
  // rtlint: allow(unordered-iter) keys are collected and sorted before any
  // output-affecting use.
  for (const auto& entry : jobs_) ids.push_back(entry.first);
  std::sort(ids.begin(), ids.end());

  out << "jobs " << ids.size() << "\n";
  for (const JobId id : ids) {
    const JobRecord& record = jobs_.at(id);
    const Job& job = *record.job;
    char phase = '?';
    if (record.queued) phase = 'q';
    else if (record.running) phase = 'r';
    else if (record.finished) phase = 'f';
    else if (record.canceled) phase = 'c';
    RTP_CHECK(phase != '?', "serialize: job " + std::to_string(id) + " has no phase");
    out << "job " << id << " " << job.nodes << " " << format_double_bits(job.max_runtime)
        << " " << format_double_bits(job.submit) << " " << format_double_bits(job.runtime)
        << " " << format_double_bits(job.trace_start) << " "
        << format_double_bits(record.submit) << " " << format_double_bits(record.first_start)
        << " " << format_double_bits(record.attempt_start) << " " << record.attempts << " "
        << phase;
    for (const Characteristic c : all_characteristics()) {
      if (c == Characteristic::Nodes) continue;
      const std::string& value = job.field(c);
      if (value.empty()) continue;
      RTP_CHECK(value.find_first_of(" \t\n\r") == std::string::npos,
                "serialize: job field value contains whitespace; not representable: " + value);
      out << " " << characteristic_abbr(c) << "=" << value;
    }
    out << "\n";
  }

  out << "retired " << retired_.size() << "\n";
  for (const auto& [lo, hi] : retired_) out << "t " << lo << " " << hi << "\n";

  out << "queue " << state_.queue().size() << "\n";
  for (const SchedJob& sj : state_.queue())
    out << "q " << sj.id() << " " << format_double_bits(sj.submit) << " "
        << format_double_bits(sj.estimate) << "\n";
  out << "running " << state_.running().size() << "\n";
  for (const SchedJob& sj : state_.running())
    out << "r " << sj.id() << " " << format_double_bits(sj.submit) << " "
        << format_double_bits(sj.estimate) << " " << format_double_bits(sj.start) << "\n";
  out << "down " << state_.down_nodes() << "\n";

  std::vector<JobId> predicted_ids;
  predicted_ids.reserve(predicted_wait_.size());
  // rtlint: allow(unordered-iter) keys are collected and sorted before any
  // output-affecting use.
  for (const auto& entry : predicted_wait_) predicted_ids.push_back(entry.first);
  std::sort(predicted_ids.begin(), predicted_ids.end());
  out << "predicted " << predicted_ids.size() << "\n";
  for (const JobId id : predicted_ids)
    out << "p " << id << " " << format_double_bits(predicted_wait_.at(id)) << "\n";

  out << "completions " << completions_.size() << "\n";
  for (const auto& [id, t] : completions_)
    out << "c " << id << " " << format_double_bits(t) << "\n";
  out << "end\n";
}

void OnlineSession::restore(std::istream& in) {
  RTP_CHECK(version_ == 0 && jobs_.empty(), "restore requires a fresh session");

  SnapshotReader reader(in);
  {
    std::string header;
    RTP_CHECK(std::getline(in, header), "snapshot is empty");
    RTP_CHECK(trim(header) == kSnapshotHeader,
              "not a session snapshot (header '" + header + "')");
  }
  {
    const auto tokens = reader.expect("policy", 2);
    RTP_CHECK(std::string(tokens[1]) == policy_.name(),
              "snapshot policy '" + std::string(tokens[1]) + "' does not match session policy '" +
                  policy_.name() + "'");
  }
  {
    const auto tokens = reader.expect("predictor", 2);
    RTP_CHECK(std::string(tokens[1]) == predictor_.name(),
              "snapshot predictor '" + std::string(tokens[1]) +
                  "' does not match session predictor '" + predictor_.name() + "'");
  }
  {
    const auto tokens = reader.expect("name", 1);
    options_.name = tokens.size() > 1 ? std::string(tokens[1]) : std::string();
  }
  {
    const auto tokens = reader.expect("nodes", 2);
    const long long nodes = reader.integer(tokens[1]);
    RTP_CHECK(nodes == state_.machine_nodes(),
              "snapshot machine has " + std::to_string(nodes) + " nodes; session has " +
                  std::to_string(state_.machine_nodes()));
  }
  {
    const auto tokens = reader.expect("clock", 5);
    now_ = reader.bits(tokens[1]);
    first_submit_ = reader.bits(tokens[2]);
    last_completion_ = reader.bits(tokens[3]);
    saw_event_ = tokens[4] == "1";
  }
  {
    const auto tokens = reader.expect("version", 2);
    version_ = static_cast<std::uint64_t>(reader.integer(tokens[1]));
  }
  {
    const auto tokens = reader.expect("ids", 3);
    max_id_seen_ = static_cast<JobId>(reader.integer(tokens[1]));
    any_job_seen_ = tokens[2] == "1";
  }
  {
    const auto tokens = reader.expect("counters", 3);
    counters_.events = static_cast<std::uint64_t>(reader.integer(tokens[1]));
    counters_.canceled = static_cast<std::uint64_t>(reader.integer(tokens[2]));
  }
  {
    const auto tokens = reader.expect("totals", 8);
    completed_ = reader.size(tokens[1]);
    failures_ = reader.size(tokens[2]);
    retries_ = reader.size(tokens[3]);
    attempts_started_ = reader.size(tokens[4]);
    node_outages_ = reader.size(tokens[5]);
    total_work_ = reader.bits(tokens[6]);
    wasted_work_ = reader.bits(tokens[7]);
  }
  error_ = reader.stats(reader.expect("stats", 8));
  waits_ = reader.stats(reader.expect("stats", 8));
  signed_error_ = reader.stats(reader.expect("stats", 8));

  const std::size_t job_count = reader.size(reader.expect("jobs", 2)[1]);
  for (std::size_t i = 0; i < job_count; ++i) {
    const auto tokens = reader.expect("job", 12);
    JobRecord record;
    record.job = std::make_unique<Job>();
    Job& job = *record.job;
    job.id = static_cast<JobId>(reader.integer(tokens[1]));
    job.nodes = static_cast<int>(reader.integer(tokens[2]));
    job.max_runtime = reader.bits(tokens[3]);
    job.submit = reader.bits(tokens[4]);
    job.runtime = reader.bits(tokens[5]);
    job.trace_start = reader.bits(tokens[6]);
    record.submit = reader.bits(tokens[7]);
    record.first_start = reader.bits(tokens[8]);
    record.attempt_start = reader.bits(tokens[9]);
    record.attempts = static_cast<int>(reader.integer(tokens[10]));
    RTP_CHECK(tokens[11].size() == 1, "snapshot job phase must be one character");
    switch (tokens[11][0]) {
      case 'q': record.queued = true; break;
      case 'r': record.running = true; break;
      case 'f': record.finished = true; break;
      case 'c': record.canceled = true; break;
      default:
        rtp::fail("snapshot job phase '" + std::string(tokens[11]) + "' unknown");
    }
    for (std::size_t f = 12; f < tokens.size(); ++f) {
      const auto parts = split(tokens[f], '=');
      RTP_CHECK(parts.size() == 2 && !parts[0].empty(),
                "snapshot job field must be <abbr>=<value>, got '" + std::string(tokens[f]) +
                    "'");
      set_field(job, characteristic_from_abbr(parts[0]), std::string(parts[1]));
    }
    RTP_CHECK(jobs_.find(job.id) == jobs_.end(),
              "snapshot repeats job id " + std::to_string(job.id));
    jobs_.emplace(job.id, std::move(record));
  }

  const std::size_t retired_count = reader.size(reader.expect("retired", 2)[1]);
  for (std::size_t i = 0; i < retired_count; ++i) {
    const auto tokens = reader.expect("t", 3);
    const JobId lo = static_cast<JobId>(reader.integer(tokens[1]));
    const JobId hi = static_cast<JobId>(reader.integer(tokens[2]));
    RTP_CHECK(lo <= hi, "snapshot retired range is inverted");
    const auto [it, inserted] = retired_.emplace(lo, hi);
    RTP_CHECK(inserted, "snapshot repeats retired range " + std::to_string(lo));
  }

  // Rebuild SystemState: running jobs first (in running-set order), then
  // node outages, then the wait queue (in queue order) — the same ordering
  // invariants the live mutations maintain.
  struct QueueEntry {
    JobId id;
    Seconds submit;
    Seconds estimate;
    Seconds start;
  };
  std::vector<QueueEntry> queued, running;
  const std::size_t queue_count = reader.size(reader.expect("queue", 2)[1]);
  for (std::size_t i = 0; i < queue_count; ++i) {
    const auto tokens = reader.expect("q", 4);
    queued.push_back({static_cast<JobId>(reader.integer(tokens[1])), reader.bits(tokens[2]),
                      reader.bits(tokens[3]), kNoTime});
  }
  const std::size_t running_count = reader.size(reader.expect("running", 2)[1]);
  for (std::size_t i = 0; i < running_count; ++i) {
    const auto tokens = reader.expect("r", 5);
    running.push_back({static_cast<JobId>(reader.integer(tokens[1])), reader.bits(tokens[2]),
                       reader.bits(tokens[3]), reader.bits(tokens[4])});
  }
  const int down_nodes = static_cast<int>(reader.integer(reader.expect("down", 2)[1]));

  const auto snapshot_job = [&](JobId id) -> const Job& {
    const auto it = jobs_.find(id);
    RTP_CHECK(it != jobs_.end(),
              "snapshot state references unknown job id " + std::to_string(id));
    return *it->second.job;
  };
  for (const QueueEntry& entry : running) {
    state_.enqueue(snapshot_job(entry.id), entry.submit, entry.estimate);
    state_.start_job(entry.id, entry.start);
  }
  RTP_CHECK(down_nodes >= 0 && down_nodes <= state_.free_nodes(),
            "snapshot down-node count is inconsistent with its running set");
  if (down_nodes > 0) state_.take_nodes_down(down_nodes);
  for (const QueueEntry& entry : queued)
    state_.enqueue(snapshot_job(entry.id), entry.submit, entry.estimate);

  const std::size_t predicted_count = reader.size(reader.expect("predicted", 2)[1]);
  for (std::size_t i = 0; i < predicted_count; ++i) {
    const auto tokens = reader.expect("p", 3);
    const JobId id = static_cast<JobId>(reader.integer(tokens[1]));
    RTP_CHECK(jobs_.find(id) != jobs_.end(),
              "snapshot prediction references unknown job id " + std::to_string(id));
    predicted_wait_.emplace(id, reader.bits(tokens[2]));
  }

  const std::size_t completion_count = reader.size(reader.expect("completions", 2)[1]);
  completions_.reserve(completion_count);
  for (std::size_t i = 0; i < completion_count; ++i) {
    const auto tokens = reader.expect("c", 3);
    const JobId id = static_cast<JobId>(reader.integer(tokens[1]));
    completions_.emplace_back(id, reader.bits(tokens[2]));
  }
  reader.expect("end", 1);

  // Replay the completion history into the (fresh) predictor so its model
  // matches the serialized session's bit-for-bit.
  for (const auto& [id, t] : completions_) predictor_.job_completed(snapshot_job(id), t);

  // Resynchronize the shadow from the restored state; its estimates refresh
  // at the next query.
  shadow_.reset(state_);
}

SimResult OnlineSession::result() const {
  SimResult r;
  r.workload_name = options_.name;
  r.policy_name = policy_.name();
  r.estimator_name = predictor_.name();

  const std::size_t n = any_job_seen_ ? static_cast<std::size_t>(max_id_seen_) + 1 : 0;
  r.start_times.assign(n, kNoTime);
  r.waits.assign(n, 0.0);
  r.attempts.assign(n, 0);
  // rtlint: allow(unordered-iter) every write lands in a slot indexed by the
  // job's own id, so the visit order cannot reach the result.
  for (const auto& [id, record] : jobs_) {
    r.start_times[id] = record.first_start;
    if (record.first_start >= 0.0) r.waits[id] = record.first_start - record.submit;
    r.attempts[id] = record.attempts;
  }

  r.attempts_started = attempts_started_;
  r.completed = completed_;
  r.failures = failures_;
  r.retries = retries_;
  r.abandoned = counters_.canceled;
  r.node_outages = node_outages_;
  r.wasted_work = wasted_work_;
  finalize_metrics(r, total_work_, state_.machine_nodes(), first_submit_, last_completion_);
  return r;
}

}  // namespace rtp
