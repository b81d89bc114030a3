#include "service/replication.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include "core/error.hpp"
#include "core/log.hpp"
#include "core/rng.hpp"
#include "core/strings.hpp"
#include "service/client.hpp"
#include "service/io.hpp"
#include "service/server.hpp"
#include "service/session.hpp"

namespace rtp {
namespace {

using Clock = std::chrono::steady_clock;

/// Same sanity cap as the journal's: a wire length beyond this is garbage,
/// not a record.
constexpr std::size_t kMaxWireBytes = std::size_t{1} << 28;

void put_u32_le(std::string& out, std::uint32_t value) {
  out.push_back(static_cast<char>(value & 0xFFu));
  out.push_back(static_cast<char>((value >> 8) & 0xFFu));
  out.push_back(static_cast<char>((value >> 16) & 0xFFu));
  out.push_back(static_cast<char>((value >> 24) & 0xFFu));
}

void put_u64_le(std::string& out, std::uint64_t value) {
  put_u32_le(out, static_cast<std::uint32_t>(value & 0xFFFFFFFFu));
  put_u32_le(out, static_cast<std::uint32_t>(value >> 32));
}

std::uint32_t get_u32_le(const char* p) {
  const auto b = [&](int i) {
    return static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]));
  };
  return b(0) | (b(1) << 8) | (b(2) << 16) | (b(3) << 24);
}

std::uint64_t get_u64_le(const char* p) {
  return static_cast<std::uint64_t>(get_u32_le(p)) |
         (static_cast<std::uint64_t>(get_u32_le(p + 4)) << 32);
}

std::optional<std::uint64_t> parse_seq(std::string_view text) {
  if (text.empty()) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    if (value > (UINT64_MAX - static_cast<std::uint64_t>(c - '0')) / 10) return std::nullopt;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return value;
}

/// Parsed value of the "key=<seq>" token in a handshake line, if present
/// and well-formed.
std::optional<std::uint64_t> token_seq(const std::vector<std::string_view>& tokens,
                                       std::string_view key) {
  for (const std::string_view token : tokens)
    if (starts_with(token, key)) return parse_seq(token.substr(key.size()));
  return std::nullopt;
}

std::optional<std::string> token_value(const std::vector<std::string_view>& tokens,
                                       std::string_view key) {
  for (const std::string_view token : tokens)
    if (starts_with(token, key)) return std::string(token.substr(key.size()));
  return std::nullopt;
}

bool pread_exact(int fd, std::size_t offset, char* buffer, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t r = ::pread(fd, buffer + off, n - off,
                              static_cast<off_t>(offset + off));
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) return false;  // short file
    off += static_cast<std::size_t>(r);
  }
  return true;
}

std::int64_t ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(to - from).count();
}

}  // namespace

std::string session_fingerprint(const OnlineSession& session) {
  const std::string text = "policy=" + session.policy_name() +
                           ";predictor=" + session.predictor_name() +
                           ";nodes=" + std::to_string(session.state().machine_nodes());
  char hex[16];
  std::snprintf(hex, sizeof(hex), "%08x", crc32(text));
  return std::string(hex);
}

std::uint64_t read_seq_base(const std::string& journal_path) {
  std::ifstream in(journal_path + ".base");
  if (!in.good()) return 0;
  std::string text;
  in >> text;
  const auto value = parse_seq(text);
  RTP_CHECK(value.has_value(),
            "malformed seq-base sidecar '" + journal_path + ".base'");
  return *value;
}

void write_seq_base(const std::string& journal_path, std::uint64_t base) {
  const std::string path = journal_path + ".base";
  const std::string tmp = path + ".tmp";
  {
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    RTP_CHECK(fd >= 0, "cannot write seq-base sidecar '" + tmp + "': " +
                           std::strerror(errno));
    const std::string text = std::to_string(base) + "\n";
    const io::IoResult w = io::write_all(fd, text.data(), text.size());
    const io::IoResult s = io::fsync_fd(fd);
    ::close(fd);
    RTP_CHECK(w.ok() && s.ok(), "seq-base sidecar write failed for '" + tmp + "'");
  }
  RTP_CHECK(std::rename(tmp.c_str(), path.c_str()) == 0,
            "seq-base sidecar rename failed for '" + path + "': " +
                std::strerror(errno));
}

void append_wire_frame(std::string& out, std::uint64_t seq, std::string_view payload) {
  RTP_CHECK(payload.size() <= kMaxWireBytes, "replication frame too large");
  put_u64_le(out, seq);
  put_u32_le(out, static_cast<std::uint32_t>(payload.size()));
  put_u32_le(out, crc32(payload));
  out.append(payload);
}

std::size_t parse_wire_frame(std::string_view buffer, WireFrame* frame) {
  if (buffer.size() < kWireHeaderBytes) return 0;
  const std::uint64_t seq = get_u64_le(buffer.data());
  const std::uint32_t length = get_u32_le(buffer.data() + 8);
  const std::uint32_t stored_crc = get_u32_le(buffer.data() + 12);
  RTP_CHECK(length <= kMaxWireBytes,
            "implausible replication frame length " + std::to_string(length));
  if (buffer.size() - kWireHeaderBytes < length) return 0;
  const std::string_view payload = buffer.substr(kWireHeaderBytes, length);
  RTP_CHECK(crc32(payload) == stored_crc,
            "replication frame CRC mismatch at seq " + std::to_string(seq));
  frame->seq = seq;
  frame->payload = std::string(payload);
  return kWireHeaderBytes + length;
}

// --- ReplicationSender. ---------------------------------------------------

ReplicationSender::ReplicationSender(std::string journal_path, std::string fingerprint,
                                     ReplicationOptions options)
    : journal_path_(std::move(journal_path)),
      fingerprint_(std::move(fingerprint)),
      options_(options) {
  base_ = read_seq_base(journal_path_);
  const JournalScan scan = scan_journal_file(journal_path_);
  last_seq_ = base_ + scan.records.size();
  watermark_ = scan.valid_bytes < kJournalMagic.size() ? kJournalMagic.size()
                                                       : scan.valid_bytes;
}

ReplicationSender::~ReplicationSender() { stop(); }

void ReplicationSender::set_snapshot_source(std::function<ReplicationSnapshot()> source) {
  snapshot_fn_ = std::move(source);
}

void ReplicationSender::add_follower(std::string host, std::uint16_t port) {
  std::lock_guard<std::mutex> lock(mutex_);
  RTP_CHECK(!started_, "add_follower() must precede start()");
  auto follower = std::make_unique<Follower>();
  follower->host = std::move(host);
  follower->port = port;
  followers_.push_back(std::move(follower));
}

void ReplicationSender::add_follower_live(std::string host, std::uint16_t port) {
  std::lock_guard<std::mutex> admin(admin_mutex_);
  auto follower = std::make_unique<Follower>();
  follower->host = std::move(host);
  follower->port = port;
  Follower* f = follower.get();
  std::uint64_t seed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    RTP_CHECK(started_ && !stop_, "add_follower_live() requires a running sender");
    for (const auto& existing : followers_)
      RTP_CHECK(existing->host != f->host || existing->port != f->port,
                "follower " + f->host + ":" + std::to_string(f->port) +
                    " is already attached");
    // Deterministic per-follower jitter seed, disjoint from the start()
    // stream (which forks sequentially from the base seed).
    seed = Rng(options_.jitter_seed ^ (0x6d696772ull + port)).fork().engine()();
    followers_.push_back(std::move(follower));
  }
  // admin_mutex_ still held: stop()/remove_follower() cannot observe the
  // follower before its thread exists.
  f->thread = std::thread([this, f, seed] { run_follower(*f, seed); });
}

bool ReplicationSender::remove_follower(const std::string& host, std::uint16_t port) {
  std::lock_guard<std::mutex> admin(admin_mutex_);
  std::unique_ptr<Follower> victim;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) return false;  // stop() already owns every join
    for (auto it = followers_.begin(); it != followers_.end(); ++it) {
      if ((*it)->host == host && (*it)->port == port) {
        victim = std::move(*it);
        followers_.erase(it);
        break;
      }
    }
  }
  if (victim == nullptr) return false;
  victim->stop.store(true, std::memory_order_release);
  cv_.notify_all();
  if (victim->thread.joinable()) victim->thread.join();
  return true;
}

bool ReplicationSender::follower_status(const std::string& host, std::uint16_t port,
                                        FollowerStatus* out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& follower : followers_) {
    if (follower->host != host || follower->port != port) continue;
    out->address = follower->host + ":" + std::to_string(follower->port);
    out->connected = follower->connected.load(std::memory_order_relaxed);
    out->acked_seq = follower->acked.load(std::memory_order_relaxed);
    out->lag = last_seq_ > out->acked_seq ? last_seq_ - out->acked_seq : 0;
    out->frames_sent = follower->frames.load(std::memory_order_relaxed);
    out->resyncs = follower->resyncs.load(std::memory_order_relaxed);
    return true;
  }
  return false;
}

void ReplicationSender::start() {
  std::lock_guard<std::mutex> admin(admin_mutex_);
  std::lock_guard<std::mutex> lock(mutex_);
  RTP_CHECK(!started_, "replication sender already started");
  started_ = true;
  Rng seeds(options_.jitter_seed);
  for (auto& follower : followers_) {
    const std::uint64_t seed = seeds.fork().engine()();
    Follower* f = follower.get();
    follower->thread = std::thread([this, f, seed] { run_follower(*f, seed); });
  }
}

void ReplicationSender::stop() {
  std::lock_guard<std::mutex> admin(admin_mutex_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  // followers_ cannot change concurrently: add/remove take admin_mutex_.
  for (auto& follower : followers_)
    if (follower->thread.joinable()) follower->thread.join();
}

void ReplicationSender::advance(std::size_t committed_bytes) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++last_seq_;
    watermark_ = committed_bytes;
  }
  cv_.notify_all();
}

std::uint64_t ReplicationSender::last_committed_seq() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_seq_;
}

std::vector<FollowerStatus> ReplicationSender::followers() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t last = last_seq_;
  std::vector<FollowerStatus> out;
  out.reserve(followers_.size());
  for (const auto& follower : followers_) {
    FollowerStatus status;
    status.address = follower->host + ":" + std::to_string(follower->port);
    status.connected = follower->connected.load(std::memory_order_relaxed);
    status.acked_seq = follower->acked.load(std::memory_order_relaxed);
    status.lag = last > status.acked_seq ? last - status.acked_seq : 0;
    status.frames_sent = follower->frames.load(std::memory_order_relaxed);
    status.resyncs = follower->resyncs.load(std::memory_order_relaxed);
    out.push_back(std::move(status));
  }
  return out;
}

std::uint64_t ReplicationSender::min_acked_seq() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t min = 0;
  bool first = true;
  for (const auto& follower : followers_) {
    const std::uint64_t acked = follower->acked.load(std::memory_order_relaxed);
    if (first || acked < min) min = acked;
    first = false;
  }
  return min;
}

bool ReplicationSender::wait_for_acks(std::uint64_t seq, std::uint32_t timeout_ms) const {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    bool all = true;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (const auto& follower : followers_)
        if (follower->acked.load(std::memory_order_relaxed) < seq) all = false;
    }
    if (all) return true;
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

bool ReplicationSender::stopped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stop_;
}

void ReplicationSender::run_follower(Follower& follower, std::uint64_t seed) {
  Rng rng(seed);
  std::uint32_t attempt = 0;
  const auto halted = [this, &follower] {
    return stopped() || follower.stop.load(std::memory_order_acquire);
  };
  const auto backoff = [&] {
    const auto delay =
        backoff_delay(attempt, options_.backoff_min_ms, options_.backoff_max_ms, rng);
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait_for(lock, delay, [this, &follower] {
      return stop_ || follower.stop.load(std::memory_order_acquire);
    });
    ++attempt;
  };

  // Bound handshake/ack reads so a wedged follower cannot pin this thread.
  const std::uint32_t handshake_ms =
      options_.connect_timeout_ms > 0 ? options_.connect_timeout_ms : 2000;

  while (!halted()) {
    std::string error;
    const int fd = io::dial_tcp_rcvtimeo(follower.host, follower.port,
                                         options_.connect_timeout_ms, handshake_ms,
                                         &error);
    if (fd < 0) {
      log_debug("replication dial ", follower.host, ":", follower.port, ": ", error);
      backoff();
      continue;
    }
    bool established = false;
    stream_connection(follower, fd, &established);
    follower.connected.store(false, std::memory_order_relaxed);
    ::close(fd);
    if (halted()) break;
    if (established) {
      ++follower.resyncs;
      attempt = 0;
    }
    backoff();
  }
}

void ReplicationSender::stream_connection(Follower& follower, int fd, bool* established) {
  const std::string address = follower.host + ":" + std::to_string(follower.port);

  const auto send_text = [&](const std::string& text) {
    return io::send_all(fd, text.data(), text.size()).ok();
  };

  std::string hello = std::string(kReplicationMagic) +
                      " hello fingerprint=" + fingerprint_ +
                      " seq=" + std::to_string(last_committed_seq()) + "\n";
  if (!send_text(hello)) return;

  // Read the follower's reply line; any bytes past the newline are early
  // ack frames and seed the ack buffer.
  std::string ackbuf;
  std::string line;
  for (;;) {
    const std::size_t pos = ackbuf.find('\n');
    if (pos != std::string::npos) {
      line = ackbuf.substr(0, pos);
      ackbuf.erase(0, pos + 1);
      break;
    }
    if (ackbuf.size() > 4096) {
      log_warn("replication ", address, ": oversized handshake reply");
      return;
    }
    char chunk[1024];
    const io::IoResult r = io::recv_some(fd, chunk, sizeof(chunk));
    if (!r.ok()) {
      log_debug("replication ", address, " handshake: ", io::describe(r));
      return;
    }
    ackbuf.append(chunk, r.bytes);
  }
  if (!line.empty() && line.back() == '\r') line.pop_back();

  const auto tokens = split_whitespace(line);
  if (tokens.size() >= 2 && tokens[0] == kReplicationMagic && tokens[1] == "err") {
    log_warn("replication ", address, " refused: ", line);
    return;
  }
  const std::optional<std::uint64_t> follow_seq =
      tokens.size() >= 3 && tokens[0] == kReplicationMagic && tokens[1] == "follow"
          ? token_seq(tokens, "seq=")
          : std::nullopt;
  if (!follow_seq.has_value()) {
    log_warn("replication ", address, ": bad handshake reply '", line, "'");
    return;
  }

  std::uint64_t next = *follow_seq + 1;
  if (*follow_seq > last_committed_seq()) {
    // The follower has committed history we do not: a diverged or promoted
    // peer.  Refuse to stream rather than fork history.
    log_warn("replication ", address, " is ahead (seq ", *follow_seq,
             " > ", last_committed_seq(), "); not streaming");
    return;
  }
  if (*follow_seq < base_) {
    if (!snapshot_fn_) {
      log_warn("replication ", address, " needs records before seq base ", base_,
               " and no snapshot source is set");
      return;
    }
    const ReplicationSnapshot snapshot = snapshot_fn_();
    std::string header = std::string(kReplicationMagic) +
                         " snapshot seq=" + std::to_string(snapshot.seq) +
                         " bytes=" + std::to_string(snapshot.text.size()) + "\n";
    if (!send_text(header) || !send_text(snapshot.text)) return;
    next = snapshot.seq + 1;
  } else {
    if (!send_text(std::string(kReplicationMagic) +
                   " stream from=" + std::to_string(next) + "\n"))
      return;
  }

  // Tail the journal file through a private read-only descriptor: the
  // writer only ever appends past the committed watermark we read up to,
  // and rewinds only ever touch bytes past it.
  const int jfd = ::open(journal_path_.c_str(), O_RDONLY);
  if (jfd < 0) {
    log_warn("replication cannot open journal '", journal_path_, "': ",
             std::strerror(errno));
    return;
  }

  // Locate record `next` by walking frames from the header.
  std::size_t offset = kJournalMagic.size();
  bool located = true;
  for (std::uint64_t seq = base_ + 1; seq < next; ++seq) {
    char header[8];
    if (!pread_exact(jfd, offset, header, sizeof(header))) { located = false; break; }
    const std::uint32_t length = get_u32_le(header);
    if (length == 0 || length > kMaxWireBytes) { located = false; break; }
    offset += sizeof(header) + length;
  }
  if (!located) {
    log_warn("replication ", address, ": journal '", journal_path_,
             "' is shorter than seq ", next, " implies");
    ::close(jfd);
    return;
  }

  *established = true;
  follower.connected.store(true, std::memory_order_relaxed);
  log_info("replication streaming to ", address, " from seq ", next);

  const auto parse_acks = [&]() -> bool {
    for (;;) {
      WireFrame frame;
      std::size_t consumed;
      try {
        consumed = parse_wire_frame(ackbuf, &frame);
      } catch (const Error& e) {
        log_warn("replication ", address, " ack stream: ", e.what());
        return false;
      }
      if (consumed == 0) return true;
      ackbuf.erase(0, consumed);
      if (frame.seq == 0 && starts_with(frame.payload, "A ")) {
        const auto acked = parse_seq(std::string_view(frame.payload).substr(2));
        if (acked.has_value())
          follower.acked.store(*acked, std::memory_order_relaxed);
      }
    }
  };

  auto last_send = Clock::now();
  for (;;) {
    if (stopped() || follower.stop.load(std::memory_order_acquire)) break;

    std::uint64_t last;
    std::size_t watermark;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      last = last_seq_;
      watermark = watermark_;
    }

    if (next <= last) {
      char header[8];
      if (!pread_exact(jfd, offset, header, sizeof(header))) {
        log_warn("replication ", address, ": torn read at journal offset ", offset);
        break;
      }
      const std::uint32_t length = get_u32_le(header);
      if (length == 0 || length > kMaxWireBytes ||
          offset + sizeof(header) + length > watermark) {
        log_warn("replication ", address, ": journal frame at offset ", offset,
                 " crosses the committed watermark");
        break;
      }
      std::string payload(length, '\0');
      if (!pread_exact(jfd, offset + sizeof(header), payload.data(), length)) {
        log_warn("replication ", address, ": torn read at journal offset ", offset);
        break;
      }
      // The wire frame reuses the journal frame's own length and CRC: the
      // header bytes are identical, only the seq prefix is new.
      std::string wire;
      wire.reserve(kWireHeaderBytes + length);
      put_u64_le(wire, next);
      wire.append(header, sizeof(header));
      wire.append(payload);
      const io::IoResult w = io::send_all(fd, wire.data(), wire.size());
      if (!w.ok()) {
        log_debug("replication ", address, " send: ", io::describe(w));
        break;
      }
      follower.frames.fetch_add(1, std::memory_order_relaxed);
      offset += sizeof(header) + length;
      ++next;
      last_send = Clock::now();
      continue;
    }

    // Idle: heartbeat on cadence, then wait briefly for new commits.  The
    // heartbeat carries the seq of the last frame *sent*, which is exactly
    // what a healthy follower has applied.
    if (ms_between(last_send, Clock::now()) >=
        static_cast<std::int64_t>(options_.heartbeat_ms)) {
      std::string wire;
      append_wire_frame(wire, 0, "H " + std::to_string(next - 1));
      const io::IoResult w = io::send_all(fd, wire.data(), wire.size());
      if (!w.ok()) break;
      last_send = Clock::now();
    }
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait_for(lock, std::chrono::milliseconds(20), [&] {
        return stop_ || follower.stop.load(std::memory_order_acquire) ||
               last_seq_ >= next;
      });
    }

    // Drain acks without blocking.
    bool dead = false;
    for (;;) {
      pollfd pfd{};
      pfd.fd = fd;
      pfd.events = POLLIN;
      const int ready = ::poll(&pfd, 1, 0);
      if (ready < 0 && errno == EINTR) continue;
      if (ready <= 0) break;
      char chunk[4096];
      const io::IoResult r = io::recv_some(fd, chunk, sizeof(chunk));
      if (!r.ok()) { dead = true; break; }
      ackbuf.append(chunk, r.bytes);
      if (!parse_acks()) { dead = true; break; }
    }
    if (dead) break;
  }
  ::close(jfd);
}

// --- FollowerApplier. -----------------------------------------------------

FollowerApplier::FollowerApplier(ServiceServer& server, OnlineSession& session,
                                 JournalWriter& journal, std::string fingerprint,
                                 FollowerOptions options)
    : server_(server),
      session_(session),
      journal_(journal),
      fingerprint_(std::move(fingerprint)),
      options_(options) {
  const std::uint64_t base = read_seq_base(journal_.path());
  const JournalScan scan = scan_journal_file(journal_.path());
  applied_seq_.store(base + scan.records.size(), std::memory_order_release);
  session_.set_record_predictions(false);
  server_.set_read_only(true);
}

FollowerApplier::~FollowerApplier() { stop(); }

std::uint16_t FollowerApplier::listen_on(std::uint16_t port) {
  RTP_CHECK(listen_fd_ < 0, "follower is already listening");
  listen_fd_ = io::listen_loopback(port, &listen_port_);
  return listen_port_;
}

void FollowerApplier::start() {
  RTP_CHECK(listen_fd_ >= 0, "start() requires listen_on() first");
  RTP_CHECK(!started_.exchange(true), "follower applier already started");
  thread_ = std::thread([this] { run(); });
}

void FollowerApplier::stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  close_connection();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void FollowerApplier::promote() {
  server_.locked_apply([this] {
    promote_locked();
    return 0;
  });
}

void FollowerApplier::promote_locked() {
  if (promoted_.exchange(true, std::memory_order_acq_rel)) return;
  journal_.sync();
  session_.set_record_predictions(true);
  server_.set_read_only(false);
  log_info("rtpd promoted to primary at seq ",
           applied_seq_.load(std::memory_order_acquire));
}

FollowerCounters FollowerApplier::counters() const {
  FollowerCounters out;
  out.frames_applied = frames_applied_.load(std::memory_order_relaxed);
  out.heartbeats = heartbeats_.load(std::memory_order_relaxed);
  out.snapshots_loaded = snapshots_loaded_.load(std::memory_order_relaxed);
  out.resyncs = resyncs_.load(std::memory_order_relaxed);
  out.rejected = rejected_.load(std::memory_order_relaxed);
  return out;
}

void FollowerApplier::run() {
  last_activity_ = Clock::now();
  while (!stop_.load(std::memory_order_acquire) && !promoted()) {
    if (options_.promote_after_ms > 0 &&
        ms_between(last_activity_, Clock::now()) >=
            static_cast<std::int64_t>(options_.promote_after_ms)) {
      log_info("rtpd primary silent for ", options_.promote_after_ms,
               " ms; auto-promoting");
      promote();
      break;
    }

    pollfd fds[2];
    fds[0].fd = listen_fd_;
    fds[0].events = POLLIN;
    fds[0].revents = 0;
    const int polled_conn = conn_fd_;
    nfds_t n = 1;
    if (polled_conn >= 0) {
      fds[1].fd = polled_conn;
      fds[1].events = POLLIN;
      fds[1].revents = 0;
      n = 2;
    }
    const int ready = ::poll(fds, n, static_cast<int>(options_.poll_ms));
    if (ready < 0) {
      if (errno == EINTR) continue;
      log_warn("replication follower poll: ", std::strerror(errno));
      break;
    }
    if (stop_.load(std::memory_order_acquire) || promoted()) break;
    if ((fds[0].revents & POLLIN) != 0) accept_connection();
    if (n == 2 && polled_conn == conn_fd_ &&
        (fds[1].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      char chunk[65536];
      const io::IoResult r = io::recv_some(conn_fd_, chunk, sizeof(chunk));
      if (!r.ok()) {
        // An orderly primary disconnect is routine (it reconnects and
        // resyncs); keep listening.
        close_connection();
        continue;
      }
      buffer_.append(chunk, r.bytes);
      last_activity_ = Clock::now();
      if (!process_buffer()) {
        resyncs_.fetch_add(1, std::memory_order_relaxed);
        close_connection();
      }
    }
  }
  close_connection();
}

void FollowerApplier::accept_connection() {
  const int fd = io::accept_tcp(listen_fd_);
  if (fd < 0) return;
  // A second primary connecting supersedes the first (the old one is dead
  // or being replaced); the newest connection wins.
  if (conn_fd_ >= 0) close_connection();
  conn_fd_ = fd;
  phase_ = Phase::Hello;
  buffer_.clear();
  last_activity_ = Clock::now();
}

void FollowerApplier::close_connection() {
  if (conn_fd_ >= 0) {
    ::close(conn_fd_);
    conn_fd_ = -1;
  }
  phase_ = Phase::Hello;
  buffer_.clear();
}

bool FollowerApplier::send_line(const std::string& line) {
  const std::string framed = line + "\n";
  return io::send_all(conn_fd_, framed.data(), framed.size()).ok();
}

bool FollowerApplier::send_control(const std::string& text) {
  std::string wire;
  append_wire_frame(wire, 0, text);
  return io::send_all(conn_fd_, wire.data(), wire.size()).ok();
}

bool FollowerApplier::process_buffer() {
  for (;;) {
    switch (phase_) {
      case Phase::Hello: {
        const std::size_t pos = buffer_.find('\n');
        if (pos == std::string::npos) return buffer_.size() <= 4096;
        std::string line = buffer_.substr(0, pos);
        buffer_.erase(0, pos + 1);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        const auto tokens = split_whitespace(line);
        if (tokens.size() < 2 || tokens[0] != kReplicationMagic ||
            tokens[1] != "hello") {
          send_line(std::string(kReplicationMagic) + " err msg=expected hello");
          return false;
        }
        const auto fingerprint = token_value(tokens, "fingerprint=");
        if (!fingerprint.has_value() || *fingerprint != fingerprint_) {
          log_warn("replication hello fingerprint ",
                   fingerprint.value_or("<missing>"), " != ours ", fingerprint_,
                   "; refusing");
          send_line(std::string(kReplicationMagic) + " err msg=fingerprint mismatch");
          return false;
        }
        if (!send_line(std::string(kReplicationMagic) + " follow seq=" +
                       std::to_string(applied_seq())))
          return false;
        phase_ = Phase::Mode;
        continue;
      }
      case Phase::Mode: {
        const std::size_t pos = buffer_.find('\n');
        if (pos == std::string::npos) return buffer_.size() <= 4096;
        std::string line = buffer_.substr(0, pos);
        buffer_.erase(0, pos + 1);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        const auto tokens = split_whitespace(line);
        if (tokens.size() < 2 || tokens[0] != kReplicationMagic) return false;
        if (tokens[1] == "stream") {
          const auto from = token_seq(tokens, "from=");
          if (!from.has_value() || *from != applied_seq() + 1) {
            log_warn("replication stream resume at ",
                     from.has_value() ? std::to_string(*from) : "<bad>",
                     " does not follow applied seq ", applied_seq());
            send_line(std::string(kReplicationMagic) + " err msg=bad resume seq");
            return false;
          }
          phase_ = Phase::Frames;
          continue;
        }
        if (tokens[1] == "snapshot") {
          const auto seq = token_seq(tokens, "seq=");
          const auto bytes = token_seq(tokens, "bytes=");
          if (!seq.has_value() || *seq == 0 || !bytes.has_value() ||
              *bytes > kMaxWireBytes) {
            send_line(std::string(kReplicationMagic) + " err msg=bad snapshot header");
            return false;
          }
          snapshot_seq_ = *seq;
          snapshot_bytes_ = static_cast<std::size_t>(*bytes);
          phase_ = Phase::Snapshot;
          continue;
        }
        log_warn("replication handshake: unexpected '", line, "'");
        return false;
      }
      case Phase::Snapshot: {
        if (buffer_.size() < snapshot_bytes_) return true;
        const std::string text = buffer_.substr(0, snapshot_bytes_);
        buffer_.erase(0, snapshot_bytes_);
        if (!load_snapshot(snapshot_seq_, text)) return false;
        phase_ = Phase::Frames;
        continue;
      }
      case Phase::Frames: {
        WireFrame frame;
        std::size_t consumed;
        try {
          consumed = parse_wire_frame(buffer_, &frame);
        } catch (const Error& e) {
          log_warn("replication frame stream: ", e.what());
          return false;
        }
        if (consumed == 0) return true;
        buffer_.erase(0, consumed);
        if (!handle_frame(frame)) return false;
        continue;
      }
    }
  }
}

bool FollowerApplier::handle_frame(const WireFrame& frame) {
  if (frame.seq == 0) {
    if (!starts_with(frame.payload, "H ")) {
      log_warn("replication: unknown control frame '", frame.payload, "'");
      return false;
    }
    const auto seq = parse_seq(std::string_view(frame.payload).substr(2));
    heartbeats_.fetch_add(1, std::memory_order_relaxed);
    if (!seq.has_value() || *seq != applied_seq()) {
      // The primary believes we have records we never saw (or vice versa):
      // force a resync through a fresh handshake.
      log_warn("replication heartbeat seq ",
               seq.has_value() ? std::to_string(*seq) : "<bad>",
               " != applied ", applied_seq(), "; resyncing");
      return false;
    }
    return send_control("A " + std::to_string(applied_seq()));
  }

  const std::uint64_t applied = applied_seq();
  if (frame.seq != applied + 1) {
    log_warn("replication gap: got seq ", frame.seq, ", want ", applied + 1);
    return false;
  }
  if (frame.payload.empty()) return false;
  const char type_byte = frame.payload.front();
  if (type_byte != static_cast<char>(RecordType::Event) &&
      type_byte != static_cast<char>(RecordType::Prediction) &&
      type_byte != static_cast<char>(RecordType::Snapshot)) {
    log_warn("replication: unknown record type byte ",
             static_cast<int>(static_cast<unsigned char>(type_byte)));
    return false;
  }

  // Mirror the record into our journal write-ahead, then apply it through
  // the recovery path — the exact discipline a primary uses, so a promoted
  // follower's journal and state are indistinguishable from a primary's.
  const int outcome = server_.locked_apply([&]() -> int {
    if (promoted()) return 0;
    const auto type = static_cast<RecordType>(type_byte);
    const std::string_view body =
        std::string_view(frame.payload).substr(1);
    const std::size_t mark = journal_.append(type, body);
    if (type != RecordType::Snapshot) {
      JournalRecord record;
      record.type = type;
      record.payload = std::string(body);
      try {
        apply_journal_record(session_, record);
      } catch (const std::exception& e) {
        journal_.rewind_to(mark);
        log_warn("replication record ", frame.seq, " rejected: ", e.what());
        return -1;
      }
    }
    journal_.commit();
    return 1;
  });
  if (outcome < 0) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (outcome == 0) return false;  // promoted mid-stream; drop the connection

  applied_seq_.store(applied + 1, std::memory_order_release);
  frames_applied_.fetch_add(1, std::memory_order_relaxed);
  return send_control("A " + std::to_string(applied + 1));
}

bool FollowerApplier::load_snapshot(std::uint64_t seq, const std::string& text) {
  const int outcome = server_.locked_apply([&]() -> int {
    if (promoted()) return 0;
    if (session_.state_version() != 0 || session_.counters().events != 0) {
      log_warn("replication: snapshot bootstrap needs a fresh follower; ",
               "wipe the follower journal to re-seed");
      return -1;
    }
    std::istringstream in(text);
    try {
      session_.restore(in);
    } catch (const std::exception& e) {
      log_warn("replication snapshot restore failed: ", e.what());
      return -1;
    }
    journal_.rewind_to(kJournalMagic.size());
    journal_.append(RecordType::Snapshot, text);
    journal_.commit();
    journal_.sync();
    // The snapshot record stands for `seq` records of history, so this
    // journal's record 1 is seq `seq`: base = seq - 1.
    write_seq_base(journal_.path(), seq - 1);
    return 1;
  });
  if (outcome <= 0) return false;
  applied_seq_.store(seq, std::memory_order_release);
  snapshots_loaded_.fetch_add(1, std::memory_order_relaxed);
  return send_control("A " + std::to_string(seq));
}

}  // namespace rtp
