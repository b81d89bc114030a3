// Journal framing, scanning, the writer, and the crash harness: recovery
// from a journal truncated at *every byte boundary* must either reproduce
// the exact acknowledged state or report an explicit truncation — never
// crash, never silently diverge.  A bit-flip sweep drives the decoder with
// single-bit corruption at every byte.
#include "service/journal.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/strings.hpp"
#include "predict/simple.hpp"
#include "sched/policy.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/session.hpp"

namespace rtp {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "rtp_journal_" + name;
}

void write_file(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << "cannot write " << path;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string snapshot_of(const OnlineSession& session) {
  std::ostringstream out;
  session.serialize(out);
  return out.str();
}

/// Apply one journal record to a session the way recovery does.
void apply_record(OnlineSession& session, const JournalRecord& record) {
  if (record.type == RecordType::Event) {
    const Request r = parse_request(record.payload);
    switch (r.kind) {
      case RequestKind::Submit: session.submit(r.job, r.time); break;
      case RequestKind::Start: session.start(r.id, r.time); break;
      case RequestKind::Finish: session.finish(r.id, r.time); break;
      case RequestKind::Cancel: session.cancel(r.id, r.time); break;
      case RequestKind::Fail: session.fail(r.id, r.time); break;
      case RequestKind::NodeDown: session.node_down(r.nodes, r.time); break;
      case RequestKind::NodeUp: session.node_up(r.nodes, r.time); break;
      default: FAIL() << "unexpected event kind in journal";
    }
  } else if (record.type == RecordType::Prediction) {
    const auto tokens = split_whitespace(record.payload);
    ASSERT_EQ(tokens.size(), 2u);
    session.restore_prediction(static_cast<JobId>(parse_int(tokens[0], "id")),
                               parse_double_bits(tokens[1]));
  }
  // Snapshot records change no state.
}

TEST(JournalCrc, MatchesTheIeeeReferenceVector) {
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0x00000000u);
  EXPECT_NE(crc32("a"), crc32("b"));
}

TEST(JournalFrame, RoundTripsEveryRecordType) {
  std::string image(kJournalMagic);
  append_frame(image, RecordType::Event, "SUBMIT 0 1 4 120 600");
  append_frame(image, RecordType::Prediction, "1 4086680000000000");
  append_frame(image, RecordType::Snapshot, "rtp-session-snapshot v1\nend\n");

  const JournalScan scan = scan_journal_bytes(image);
  EXPECT_FALSE(scan.truncated);
  EXPECT_EQ(scan.valid_bytes, image.size());
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(scan.records[0].type, RecordType::Event);
  EXPECT_EQ(scan.records[0].payload, "SUBMIT 0 1 4 120 600");
  EXPECT_EQ(scan.records[1].type, RecordType::Prediction);
  EXPECT_EQ(scan.records[1].payload, "1 4086680000000000");
  EXPECT_EQ(scan.records[2].type, RecordType::Snapshot);
  EXPECT_EQ(scan.records[2].payload, "rtp-session-snapshot v1\nend\n");
  EXPECT_EQ(scan.records[2].end_offset, image.size());
}

TEST(JournalScan, EmptyHeaderOnlyTornAndForeignFiles) {
  // Empty file: a valid journal with no history.
  const JournalScan empty = scan_journal_bytes("");
  EXPECT_FALSE(empty.truncated);
  EXPECT_TRUE(empty.records.empty());
  EXPECT_EQ(empty.valid_bytes, 0u);

  // Header only: valid, no records.
  const JournalScan header = scan_journal_bytes(std::string(kJournalMagic));
  EXPECT_FALSE(header.truncated);
  EXPECT_TRUE(header.records.empty());
  EXPECT_EQ(header.valid_bytes, kJournalMagic.size());

  // A torn write of the header itself recovers as empty with a warning.
  const JournalScan torn = scan_journal_bytes(std::string(kJournalMagic.substr(0, 4)));
  EXPECT_TRUE(torn.truncated);
  EXPECT_TRUE(torn.records.empty());
  EXPECT_FALSE(torn.warning.empty());

  // A file that is simply not a journal must be refused, not truncated.
  EXPECT_THROW(scan_journal_bytes("# rtp-session-log v1\nSUBMIT 0 1 4 120 600\n"), Error);
}

TEST(JournalScan, TornTailAndCrcMismatchTruncateAtLastValidRecord) {
  std::string image(kJournalMagic);
  append_frame(image, RecordType::Event, "SUBMIT 0 1 4 120 600");
  const std::size_t one_record = image.size();
  append_frame(image, RecordType::Event, "START 0 1");

  // Torn tail: drop the last 3 bytes.
  const JournalScan torn = scan_journal_bytes(std::string_view(image).substr(0, image.size() - 3));
  EXPECT_TRUE(torn.truncated);
  ASSERT_EQ(torn.records.size(), 1u);
  EXPECT_EQ(torn.valid_bytes, one_record);
  EXPECT_NE(torn.warning.find("torn"), std::string::npos) << torn.warning;

  // CRC mismatch in the second record's payload.
  std::string corrupt = image;
  corrupt[corrupt.size() - 2] ^= 0x40;
  const JournalScan bad = scan_journal_bytes(corrupt);
  EXPECT_TRUE(bad.truncated);
  ASSERT_EQ(bad.records.size(), 1u);
  EXPECT_EQ(bad.valid_bytes, one_record);
  EXPECT_NE(bad.warning.find("CRC"), std::string::npos) << bad.warning;
}

TEST(JournalWriter, AppendsCommitsRewindsAndSurvivesReopen) {
  const std::string path = temp_path("writer.rtpj");
  write_file(path, "");  // start fresh

  JournalOptions options;
  options.fsync = FsyncPolicy::Always;
  {
    JournalWriter writer(path, options);
    EXPECT_EQ(writer.size(), kJournalMagic.size());

    writer.append_event("SUBMIT 0 1 4 120 600");
    writer.commit();
    const std::size_t mark = writer.append_event("SUBMIT 0 1 4 120 600");  // duplicate
    writer.rewind_to(mark);  // the session rejected it
    writer.append_event("START 0 1");
    writer.commit();

    EXPECT_EQ(writer.counters().records, 2u);
    EXPECT_EQ(writer.counters().rewinds, 1u);
    EXPECT_GE(writer.counters().syncs, 2u);  // one per commit under Always
  }

  // The rewound record must not be visible.
  const JournalScan scan = scan_journal_file(path);
  EXPECT_FALSE(scan.truncated);
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.records[0].payload, "SUBMIT 0 1 4 120 600");
  EXPECT_EQ(scan.records[1].payload, "START 0 1");

  // Reopening appends after the existing tail without rewriting the header.
  {
    JournalWriter writer(path, options);
    writer.append_event("FINISH 120 1");
    writer.commit();
  }
  const JournalScan after = scan_journal_file(path);
  ASSERT_EQ(after.records.size(), 3u);
  EXPECT_EQ(after.records[2].payload, "FINISH 120 1");

  // A non-journal file must be refused on open.
  const std::string foreign = temp_path("foreign.txt");
  write_file(foreign, "not a journal at all\n");
  EXPECT_THROW(JournalWriter(foreign, options), Error);
}

TEST(JournalWriter, FsyncPolicies) {
  JournalOptions interval;
  interval.fsync = FsyncPolicy::Interval;
  interval.fsync_interval = 2;
  const std::string path = temp_path("fsync.rtpj");
  write_file(path, "");
  {
    JournalWriter writer(path, interval);
    const std::uint64_t base = writer.counters().syncs;  // header sync
    for (int i = 0; i < 4; ++i) {
      writer.append_event("NODEUP " + std::to_string(i + 1) + " 1");
      writer.commit();
    }
    EXPECT_EQ(writer.counters().syncs, base + 2u);  // every 2nd commit
  }
  write_file(path, "");
  {
    JournalOptions never;
    never.fsync = FsyncPolicy::Never;
    JournalWriter writer(path, never);
    const std::uint64_t base = writer.counters().syncs;
    writer.append_event("NODEUP 1 1");
    writer.commit();
    EXPECT_EQ(writer.counters().syncs, base);
    writer.sync();  // drain path still syncs unconditionally
    EXPECT_EQ(writer.counters().syncs, base + 1u);
  }

  EXPECT_EQ(fsync_policy_from_string("always"), FsyncPolicy::Always);
  EXPECT_EQ(fsync_policy_from_string("interval"), FsyncPolicy::Interval);
  EXPECT_EQ(fsync_policy_from_string("never"), FsyncPolicy::Never);
  EXPECT_THROW(fsync_policy_from_string("sometimes"), Error);
  EXPECT_EQ(to_string(FsyncPolicy::Interval), "interval");
}

/// The crash-harness fixture: drive a journaling server through a stream
/// that exercises every event kind, estimate registration ('P' records),
/// a rejected event (journal rewind) and periodic snapshots, then study
/// the resulting journal bytes.
class JournalCrashHarness : public ::testing::Test {
 protected:
  static constexpr int kNodes = 8;

  void SetUp() override {
    // One file per test: ctest runs this fixture's tests as parallel
    // processes, which must not share a journal.
    path_ = temp_path(std::string("crash_") +
                      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
                      ".rtpj");
    write_file(path_, "");

    policy_ = make_policy(PolicyKind::Fcfs);
    ConstantPredictor predictor(600.0);
    OnlineSession session(kNodes, *policy_, predictor);

    JournalOptions journal_options;
    journal_options.fsync = FsyncPolicy::Never;  // harness speed; framing unchanged
    JournalWriter journal(path_, journal_options);

    ServerOptions server_options;
    server_options.journal = &journal;
    server_options.snapshot_every = 6;
    ServiceServer server(session, server_options);

    const char* lines[] = {
        "SUBMIT 0 1 4 120 600 u=alice q=batch",
        "ESTIMATE 1",
        "START 0 1",
        "SUBMIT 5 2 2 60 600 u=bob",
        "ESTIMATE 2",
        "SUBMIT 6 2 2 60 600",  // duplicate id: rejected, journal rewound
        "SUBMIT 7 3 8 600 -",
        "INTERVAL 3",
        "FINISH 120 1",
        "START 121 2",
        "NODEDOWN 121 2",
        "FAIL 130 2",
        "CANCEL 140 2",
        "NODEUP 150 2",
        "START 150 3",
        "FINISH 700 3",
    };
    std::size_t line_number = 0;
    bool quit = false;
    for (const char* line : lines) {
      const std::string response = server.handle_line(line, ++line_number, &quit);
      if (std::string_view(line).substr(0, 8) == "SUBMIT 6") {
        EXPECT_EQ(response.rfind("ERR", 0), 0u) << response;
      } else {
        EXPECT_EQ(response.rfind("OK", 0), 0u) << response;
      }
    }
    EXPECT_EQ(journal.counters().rewinds, 1u);
    journal.sync();

    bytes_ = read_file(path_);
    full_scan_ = scan_journal_bytes(bytes_);
    ASSERT_FALSE(full_scan_.truncated);
    std::size_t events = 0, predictions = 0, snapshots = 0;
    for (const JournalRecord& record : full_scan_.records) {
      if (record.type == RecordType::Event) ++events;
      if (record.type == RecordType::Prediction) ++predictions;
      if (record.type == RecordType::Snapshot) ++snapshots;
    }
    ASSERT_EQ(events, 12u);       // 13 event lines minus the rejected duplicate
    ASSERT_EQ(predictions, 3u);   // ESTIMATE 1, ESTIMATE 2, INTERVAL 3
    ASSERT_GE(snapshots, 2u);     // cadence 6 over 15 records
    final_state_ = snapshot_of(session);

    // Reference states: refs_[k] is the exact serialized state after k
    // journal records, built by incremental application.
    ConstantPredictor ref_predictor(600.0);
    OnlineSession ref(kNodes, *policy_, ref_predictor);
    refs_.push_back(snapshot_of(ref));
    for (const JournalRecord& record : full_scan_.records) {
      apply_record(ref, record);
      refs_.push_back(snapshot_of(ref));
    }
    ASSERT_EQ(refs_.back(), final_state_) << "incremental replay must land on the live state";
  }

  std::unique_ptr<SchedulerPolicy> policy_;
  std::string path_;
  std::string bytes_;
  JournalScan full_scan_;
  std::string final_state_;
  std::vector<std::string> refs_;
};

TEST_F(JournalCrashHarness, KillAtEveryByteRecoversOrReportsTruncation) {
  // Byte offsets at which the journal is whole (no torn tail).
  std::set<std::size_t> boundaries = {0, kJournalMagic.size()};
  for (const JournalRecord& record : full_scan_.records) boundaries.insert(record.end_offset);

  const std::string prefix_path = temp_path("crash_prefix.rtpj");
  for (std::size_t cut = 0; cut <= bytes_.size(); ++cut) {
    write_file(prefix_path, std::string_view(bytes_).substr(0, cut));
    ConstantPredictor predictor(600.0);
    OnlineSession session(kNodes, *policy_, predictor);
    const RecoveryReport report = recover_session(prefix_path, session, false);

    ASSERT_LE(report.records, refs_.size() - 1) << "cut at " << cut;
    EXPECT_EQ(snapshot_of(session), refs_[report.records])
        << "recovered state diverges silently at cut " << cut;
    EXPECT_EQ(report.rejected_events, 0u) << "cut at " << cut;
    EXPECT_EQ(report.truncated, boundaries.count(cut) == 0)
        << "truncation must be reported exactly when the cut is mid-record (cut " << cut
        << ")";
    if (report.truncated) {
      EXPECT_FALSE(report.warning.empty());
    }
  }
}

TEST_F(JournalCrashHarness, RecoveryTruncatesTheTornTailOnDisk) {
  const std::string prefix_path = temp_path("crash_truncate.rtpj");
  const std::size_t cut = bytes_.size() - 3;  // mid-record
  write_file(prefix_path, std::string_view(bytes_).substr(0, cut));

  ConstantPredictor predictor(600.0);
  OnlineSession session(kNodes, *policy_, predictor);
  const RecoveryReport report = recover_session(prefix_path, session, true);
  EXPECT_TRUE(report.truncated);
  EXPECT_EQ(read_file(prefix_path).size(), report.valid_bytes)
      << "the torn tail must be physically removed so a writer can append";

  // Recovering the truncated file again is clean and lands on the same state.
  ConstantPredictor predictor2(600.0);
  OnlineSession session2(kNodes, *policy_, predictor2);
  const RecoveryReport again = recover_session(prefix_path, session2, false);
  EXPECT_FALSE(again.truncated);
  EXPECT_EQ(snapshot_of(session2), snapshot_of(session));
}

TEST_F(JournalCrashHarness, BitFlipSweepNeverCrashesOrSilentlyDiverges) {
  for (std::size_t i = 0; i < bytes_.size(); ++i) {
    std::string corrupt = bytes_;
    corrupt[i] = static_cast<char>(corrupt[i] ^ (1 << (i % 8)));
    try {
      const JournalScan scan = scan_journal_bytes(corrupt);
      // Every surviving record must be byte-identical to the original: a
      // flipped bit can only shorten the valid prefix, never alter it.
      ASSERT_LE(scan.records.size(), full_scan_.records.size()) << "flip at " << i;
      for (std::size_t r = 0; r < scan.records.size(); ++r) {
        ASSERT_EQ(scan.records[r].payload, full_scan_.records[r].payload)
            << "flip at byte " << i << " silently altered record " << r;
        ASSERT_EQ(scan.records[r].type, full_scan_.records[r].type);
      }
      // A flip inside record data must be detected (truncation), not
      // absorbed; flips in already-invalid tail space cannot grow the scan.
      if (i >= kJournalMagic.size() && !scan.truncated) {
        ASSERT_EQ(scan.records.size(), full_scan_.records.size()) << "flip at " << i;
      }
    } catch (const Error&) {
      // Explicit refusal (header corruption): allowed, never silent.
      ASSERT_LT(i, kJournalMagic.size())
          << "only header flips may make the file unrecognizable (flip at " << i << ")";
    }
  }
}

TEST_F(JournalCrashHarness, BitFlipRecoverySampleMatchesReportedRecordCount) {
  const std::string flip_path = temp_path("crash_flip.rtpj");
  for (std::size_t i = 0; i < bytes_.size(); i += 13) {
    std::string corrupt = bytes_;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x20);
    write_file(flip_path, corrupt);
    ConstantPredictor predictor(600.0);
    OnlineSession session(kNodes, *policy_, predictor);
    try {
      const RecoveryReport report = recover_session(flip_path, session, false);
      ASSERT_LE(report.records, refs_.size() - 1);
      EXPECT_EQ(report.rejected_events, 0u) << "flip at " << i;
      EXPECT_EQ(snapshot_of(session), refs_[report.records])
          << "recovered state diverges silently after flip at byte " << i;
    } catch (const Error&) {
      EXPECT_LT(i, kJournalMagic.size()) << "flip at " << i;
    }
  }
}

}  // namespace
}  // namespace rtp
