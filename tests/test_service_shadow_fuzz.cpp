// Randomized event-stream fuzz for the incremental shadow schedule.
//
// A seeded generator interleaves all seven event kinds — SUBMIT / START /
// FINISH / CANCEL / FAIL / NODEDOWN / NODEUP — with same-timestamp bursts
// (the suffix-repair path) and clock advances (the rebuild path), and after
// every event queries every queued job on four sessions fed the identical
// stream:
//
//   primary    the shadow schedule (the production path)
//   oracle     answered by the recompute helper (recompute_oracle.hpp);
//              registers its predictions through restore_prediction
//   follower   shadow schedule, record_predictions off, fed decoded journal
//              records exactly as the replication follower is
//   recovered  rebuilt by recover_session from a journal of the stream
//              (snapshot written mid-stream + event/prediction tail)
//
// Every answer must match the oracle bit-for-bit (std::bit_cast), for all
// four policies, and the final serialized states must be byte-identical.
// A mid-stream serialize -> restore continuation checks that a restored
// shadow keeps answering identically too.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.hpp"
#include "predict/simple.hpp"
#include "sched/policy.hpp"
#include "service/journal.hpp"
#include "service/protocol.hpp"
#include "service/session.hpp"
#include "recompute_oracle.hpp"

namespace rtp {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// History-, job- and age-dependent estimates: FINISH events change every
/// subsequent estimate, so the predictor-dirty invalidation path is load-
/// bearing, and running-job estimates move with the clock.
class HistoryShapedPredictor final : public RuntimeEstimator {
 public:
  Seconds estimate(const Job& job, Seconds age) override {
    return std::max<Seconds>(age + 1.0,
                             0.5 * job.runtime + mean_ + 3.0 * job.nodes + 0.125 * age);
  }
  void job_completed(const Job& job, Seconds end) override {
    (void)end;
    completed_.add(job.runtime);
    mean_ = completed_.mean();
  }
  std::string name() const override { return "history-shaped"; }

 private:
  RunningStats completed_;
  double mean_ = 0.0;
};

std::string temp_journal_path(const std::string& tag) {
  const ::testing::TestInfo* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = info->name();  // "Suite/param" — '/' is not a path
  for (char& c : name)
    if (c == '/') c = '_';
  return ::testing::TempDir() + "shadow_fuzz_" + name + "_" + tag + ".journal";
}

/// Generates one valid random event as a protocol Request; mirrors enough
/// bookkeeping (queued / running / capacity) to only propose legal events.
class StreamGenerator {
 public:
  StreamGenerator(std::uint64_t seed, int machine_nodes)
      : rng_(seed), machine_nodes_(machine_nodes), free_nodes_(machine_nodes) {}

  Request next() {
    // Same-timestamp bursts hit the repair path; advances hit rebuilds.
    if (rng_.chance(0.45)) t_ += static_cast<Seconds>(rng_.uniform_int(1, 900));

    for (int attempt = 0; attempt < 16; ++attempt) {
      const std::size_t kind = static_cast<std::size_t>(rng_.uniform_int(0, 9));
      Request r;
      r.time = t_;
      switch (kind) {
        case 0: case 1: case 2: case 3: {  // SUBMIT (weighted heaviest)
          r.kind = RequestKind::Submit;
          r.job.id = next_id_++;
          r.job.nodes = static_cast<int>(rng_.uniform_int(1, machine_nodes_));
          r.job.runtime = static_cast<Seconds>(rng_.uniform_int(60, 7200));
          r.job.max_runtime = 2.0 * r.job.runtime;
          r.id = r.job.id;
          queued_.push_back({r.job.id, r.job.nodes});
          return r;
        }
        case 4: case 5: {  // START any queued job that fits
          std::vector<std::size_t> fits;
          for (std::size_t i = 0; i < queued_.size(); ++i)
            if (queued_[i].nodes <= free_nodes_) fits.push_back(i);
          if (fits.empty()) break;
          const std::size_t pick = fits[static_cast<std::size_t>(
              rng_.uniform_int(0, static_cast<std::int64_t>(fits.size()) - 1))];
          r.kind = RequestKind::Start;
          r.id = queued_[pick].id;
          free_nodes_ -= queued_[pick].nodes;
          running_.push_back(queued_[pick]);
          queued_.erase(queued_.begin() + static_cast<std::ptrdiff_t>(pick));
          return r;
        }
        case 6: {  // FINISH
          if (running_.empty()) break;
          const std::size_t pick = pick_index(running_.size());
          r.kind = RequestKind::Finish;
          r.id = running_[pick].id;
          free_nodes_ += running_[pick].nodes;
          running_.erase(running_.begin() + static_cast<std::ptrdiff_t>(pick));
          return r;
        }
        case 7: {  // CANCEL
          if (queued_.empty()) break;
          const std::size_t pick = pick_index(queued_.size());
          r.kind = RequestKind::Cancel;
          r.id = queued_[pick].id;
          queued_.erase(queued_.begin() + static_cast<std::ptrdiff_t>(pick));
          return r;
        }
        case 8: {  // FAIL or NODEDOWN, evens the rarer kinds out
          if (!running_.empty() && rng_.chance(0.6)) {
            const std::size_t pick = pick_index(running_.size());
            r.kind = RequestKind::Fail;
            r.id = running_[pick].id;
            free_nodes_ += running_[pick].nodes;
            queued_.push_back(running_[pick]);
            running_.erase(running_.begin() + static_cast<std::ptrdiff_t>(pick));
            return r;
          }
          // Never take the machine fully down: a zero-capacity profile is
          // an error on the estimate path (oracle and incremental alike).
          const int takeable = std::min(free_nodes_, machine_nodes_ - down_nodes_ - 1);
          if (takeable < 1) break;
          r.kind = RequestKind::NodeDown;
          r.nodes = static_cast<int>(rng_.uniform_int(1, takeable));
          free_nodes_ -= r.nodes;
          down_nodes_ += r.nodes;
          return r;
        }
        default: {  // NODEUP
          if (down_nodes_ < 1) break;
          r.kind = RequestKind::NodeUp;
          r.nodes = static_cast<int>(rng_.uniform_int(1, down_nodes_));
          free_nodes_ += r.nodes;
          down_nodes_ -= r.nodes;
          return r;
        }
      }
    }
    // Nothing else was feasible (e.g. machine fully down): submit.
    Request r;
    r.time = t_;
    r.kind = RequestKind::Submit;
    r.job.id = next_id_++;
    r.job.nodes = 1;
    r.job.runtime = 60.0;
    r.job.max_runtime = 120.0;
    r.id = r.job.id;
    queued_.push_back({r.job.id, 1});
    return r;
  }

  const std::vector<JobId> queued_ids() const {
    std::vector<JobId> ids;
    ids.reserve(queued_.size());
    for (const auto& q : queued_) ids.push_back(q.id);
    return ids;
  }

 private:
  struct Slot {
    JobId id;
    int nodes;
  };

  std::size_t pick_index(std::size_t size) {
    return static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(size) - 1));
  }

  Rng rng_;
  int machine_nodes_;
  int free_nodes_;
  int down_nodes_ = 0;
  Seconds t_ = 0.0;
  JobId next_id_ = 0;
  std::vector<Slot> queued_;
  std::vector<Slot> running_;
};

std::string serialized(const OnlineSession& session) {
  std::ostringstream out;
  session.serialize(out);
  return out.str();
}

struct FuzzCase {
  std::uint64_t seed;
  PolicyKind policy;
  const char* label;
};

// gtest lists a parameter without a printer as its raw bytes, which would
// put a pointer that moves with ASLR into every listed name.
void PrintTo(const FuzzCase& c, std::ostream* os) { *os << c.label; }

class ShadowFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(ShadowFuzz, IncrementalOracleFollowerAndRecoveryAgreeBitForBit) {
  const FuzzCase c = GetParam();
  const auto policy = make_policy(c.policy);
  constexpr int kMachineNodes = 24;
  constexpr int kEvents = 320;
  const int snapshot_at = kEvents / 2;

  HistoryShapedPredictor primary_predictor, oracle_predictor, follower_predictor;
  OnlineSession primary(kMachineNodes, *policy, primary_predictor);
  // The oracle session only tracks state; recompute_wait answers for it.
  OnlineSession oracle(kMachineNodes, *policy, oracle_predictor);
  const auto oracle_wait = [&](JobId id) {
    return recompute_wait(oracle, *policy, oracle_predictor, id);
  };
  OnlineSession follower(kMachineNodes, *policy, follower_predictor);
  follower.set_record_predictions(false);

  const std::string journal_path = temp_journal_path(c.label);
  std::remove(journal_path.c_str());
  JournalWriter journal(journal_path);

  StreamGenerator generator(c.seed, kMachineNodes);
  Rng query_rng(c.seed ^ 0x9e3779b97f4a7c15ull);

  for (int step = 0; step < kEvents; ++step) {
    const Request event = generator.next();
    const std::string line = format_request(event);
    journal.append_event(line);
    apply_event(primary, event);
    journal.commit();
    apply_event(oracle, event);
    apply_journal_record(follower, {RecordType::Event, line, 0});

    // Query every queued job on all three live sessions.
    for (const JobId id : generator.queued_ids()) {
      const bool first = primary.recorded_prediction(id) == kNoTime;
      const Seconds expected = oracle_wait(id);
      const Seconds actual = primary.estimate_wait(id);
      ASSERT_EQ(bits(actual), bits(expected))
          << c.label << " step " << step << " job " << id << ": incremental "
          << actual << " vs oracle " << expected;
      const Seconds mirrored = follower.estimate_wait(id);
      ASSERT_EQ(bits(mirrored), bits(expected))
          << c.label << " step " << step << " job " << id << " (follower)";
      if (first && primary.recorded_prediction(id) != kNoTime) {
        oracle.restore_prediction(id, expected);
        // Replicate the registration exactly as the server does: as a
        // durable P record mirrored to followers.
        journal.append_prediction(id, primary.recorded_prediction(id));
        journal.commit();
        std::ostringstream payload;
        payload << id << " " << format_double_bits(primary.recorded_prediction(id));
        apply_journal_record(follower, {RecordType::Prediction, payload.str(), 0});
      }
    }

    // Occasionally compare a full interval (band replays over the
    // refreshed mirror vs fresh snapshots).
    const auto queued = generator.queued_ids();
    if (!queued.empty() && step % 5 == 0) {
      const JobId id = queued[static_cast<std::size_t>(
          query_rng.uniform_int(0, static_cast<std::int64_t>(queued.size()) - 1))];
      const WaitInterval a = primary.estimate_interval(id);
      const WaitInterval b = recompute_interval(oracle, *policy, oracle_predictor, id);
      ASSERT_EQ(bits(a.expected), bits(b.expected)) << c.label << " step " << step;
      ASSERT_EQ(bits(a.optimistic), bits(b.optimistic)) << c.label << " step " << step;
      ASSERT_EQ(bits(a.pessimistic), bits(b.pessimistic)) << c.label << " step " << step;
    }

    if (step == snapshot_at) {
      journal.append_snapshot(serialized(primary));
      journal.commit();
    }
  }
  journal.sync();

  // The three live sessions hold byte-identical durable state (the
  // follower registered its predictions from P records, not queries).
  const std::string primary_state = serialized(primary);
  EXPECT_EQ(primary_state, serialized(oracle))
      << c.label << ": incremental and oracle sessions diverged";
  EXPECT_EQ(primary_state, serialized(follower))
      << c.label << ": follower session diverged";

  // Journal recovery (snapshot + tail replay) reproduces the same bytes,
  // and its restored shadow keeps answering like the oracle.
  HistoryShapedPredictor recovered_predictor;
  OnlineSession recovered(kMachineNodes, *policy, recovered_predictor);
  const RecoveryReport report = recover_session(journal_path, recovered);
  EXPECT_TRUE(report.used_snapshot);
  EXPECT_FALSE(report.truncated);
  EXPECT_EQ(primary_state, serialized(recovered))
      << c.label << ": journal recovery diverged";
  for (const JobId id : generator.queued_ids())
    ASSERT_EQ(bits(recovered.estimate_wait(id)), bits(oracle_wait(id)))
        << c.label << " job " << id << " (recovered)";

  // Follower promotion: recording predictions again must not disturb the
  // bit-identity of subsequent answers.
  follower.set_record_predictions(true);
  for (const JobId id : generator.queued_ids())
    ASSERT_EQ(bits(follower.estimate_wait(id)), bits(oracle_wait(id)))
        << c.label << " job " << id << " (promoted follower)";

  std::remove(journal_path.c_str());
}

TEST_P(ShadowFuzz, MidStreamRestoreContinuesBitForBit) {
  const FuzzCase c = GetParam();
  const auto policy = make_policy(c.policy);
  constexpr int kMachineNodes = 16;
  constexpr int kEvents = 200;

  HistoryShapedPredictor live_predictor;
  OnlineSession live(kMachineNodes, *policy, live_predictor);
  StreamGenerator generator(c.seed + 17, kMachineNodes);

  std::vector<Request> tail;
  for (int step = 0; step < kEvents / 2; ++step) {
    const Request event = generator.next();
    apply_event(live, event);
    for (const JobId id : generator.queued_ids()) live.estimate_wait(id);
  }

  // Serialize mid-stream and restore into a fresh session + predictor.
  HistoryShapedPredictor restored_predictor;
  OnlineSession restored(kMachineNodes, *policy, restored_predictor);
  {
    std::istringstream in(serialized(live));
    restored.restore(in);
  }

  // Both continue through the identical remaining stream; every answer and
  // the final bytes must stay identical.
  for (int step = kEvents / 2; step < kEvents; ++step) {
    const Request event = generator.next();
    apply_event(live, event);
    apply_event(restored, event);
    for (const JobId id : generator.queued_ids()) {
      ASSERT_EQ(bits(restored.estimate_wait(id)), bits(live.estimate_wait(id)))
          << c.label << " step " << step << " job " << id;
    }
  }
  EXPECT_EQ(serialized(live), serialized(restored)) << c.label;
}

INSTANTIATE_TEST_SUITE_P(
    Policies, ShadowFuzz,
    ::testing::Values(FuzzCase{0xA11CEull, PolicyKind::Fcfs, "fcfs"},
                      FuzzCase{0xB0B5ull, PolicyKind::Lwf, "lwf"},
                      FuzzCase{0xC0FFEEull, PolicyKind::BackfillConservative, "conservative"},
                      FuzzCase{0xD00Dull, PolicyKind::BackfillEasy, "easy"}),
    [](const ::testing::TestParamInfo<FuzzCase>& param_info) {
      return std::string(param_info.param.label);
    });

}  // namespace
}  // namespace rtp
