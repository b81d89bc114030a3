#include "service/client.hpp"

#include <unistd.h>

#include <cerrno>
#include <thread>
#include <utility>

#include "core/error.hpp"
#include "core/strings.hpp"
#include "service/io.hpp"
#include "service/protocol.hpp"

namespace rtp {

std::chrono::milliseconds backoff_delay(std::uint32_t attempt, std::uint32_t min_ms,
                                        std::uint32_t max_ms, Rng& rng) {
  const std::uint32_t shift = attempt < 16 ? attempt : 16;
  const std::uint64_t uncapped = static_cast<std::uint64_t>(min_ms) << shift;
  const std::uint64_t capped = uncapped < max_ms ? uncapped : max_ms;
  return std::chrono::milliseconds(
      static_cast<std::int64_t>(static_cast<double>(capped) * rng.uniform(0.5, 1.0)));
}

bool exchange_line(int fd, std::string* buffer, std::string_view line,
                   std::size_t max_line_bytes, const std::string& address,
                   std::string* reply, std::string* error) {
  std::string framed(line);
  framed += '\n';
  const io::IoResult sent = io::send_all(fd, framed.data(), framed.size());
  if (!sent.ok()) {
    *error = address + " send: " + io::describe(sent);
    return false;
  }
  // A fresh connection delivers a greeting before the first reply when the
  // server greets.
  for (;;) {
    const std::size_t pos = buffer->find('\n');
    if (pos != std::string::npos) {
      std::string next = buffer->substr(0, pos);
      buffer->erase(0, pos + 1);
      if (!next.empty() && next.back() == '\r') next.pop_back();
      if (starts_with(next, kProtocolVersion)) continue;  // greeting
      if (!starts_with(next, "OK") && !starts_with(next, "ERR")) {
        *error = address + ": malformed response '" + next + "'";
        return false;
      }
      *reply = std::move(next);
      return true;
    }
    if (buffer->size() > max_line_bytes) {
      *error = address + ": oversized response line";
      return false;
    }
    char chunk[4096];
    const io::IoResult r = io::recv_some(fd, chunk, sizeof(chunk));
    if (!r.ok()) {
      *error = address + " recv: " +
               (r.failed() && (r.error == EAGAIN || r.error == EWOULDBLOCK)
                    ? std::string("read timed out")
                    : io::describe(r));
      return false;
    }
    buffer->append(chunk, r.bytes);
  }
}

ServiceClient::ServiceClient(std::vector<std::string> addresses, ClientOptions options)
    : options_(options), rng_(options.jitter_seed) {
  RTP_CHECK(!addresses.empty(), "rtp client needs at least one server address");
  for (const std::string& address : addresses) {
    Endpoint endpoint;
    endpoint.address = address;
    std::string error;
    RTP_CHECK(io::split_hostport(address, &endpoint.host, &endpoint.port, &error),
              "rtp client address: " + error);
    endpoints_.push_back(std::move(endpoint));
  }
}

ServiceClient::~ServiceClient() { close(); }

void ServiceClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

std::string ServiceClient::connected_address() const {
  return fd_ >= 0 ? endpoints_[current_].address : std::string();
}

bool ServiceClient::ensure_connected(std::string* error) {
  if (fd_ >= 0) return true;
  const Endpoint& endpoint = endpoints_[current_];
  const int fd = io::dial_tcp_rcvtimeo(endpoint.host, endpoint.port,
                                       options_.connect_timeout_ms,
                                       options_.read_timeout_ms, error);
  if (fd < 0) {
    *error = endpoint.address + ": " + *error;
    return false;
  }
  fd_ = fd;
  buffer_.clear();
  return true;
}

bool ServiceClient::exchange(const std::string& line, ClientReply* reply,
                             std::string* error) {
  const std::string& address = endpoints_[current_].address;
  if (!exchange_line(fd_, &buffer_, line, options_.max_line_bytes, address, &reply->line,
                     error))
    return false;
  reply->address = address;
  reply->ok = starts_with(reply->line, "OK");
  reply->code = reply->ok ? std::string() : reply_error_code(reply->line);
  return true;
}

ClientReply ServiceClient::request(const std::string& line) {
  RTP_CHECK(!line.empty() && line.find('\n') == std::string::npos,
            "request must be a single non-empty line");
  std::string last_error = "no attempts made";
  ClientReply last_reply;
  bool have_reply = false;
  for (std::uint32_t attempt = 0; attempt < options_.max_attempts; ++attempt) {
    if (attempt > 0)
      std::this_thread::sleep_for(backoff_delay(attempt - 1, options_.backoff_min_ms,
                                                options_.backoff_max_ms, rng_));
    std::string error;
    if (!ensure_connected(&error)) {
      last_error = error;
      current_ = (current_ + 1) % endpoints_.size();
      continue;
    }
    ClientReply reply;
    if (!exchange(line, &reply, &error)) {
      last_error = error;
      close();
      current_ = (current_ + 1) % endpoints_.size();
      continue;
    }
    if (!reply.ok && reply.code == "busy") {
      // Overloaded, not gone: back off and retry the same server.
      last_reply = reply;
      have_reply = true;
      continue;
    }
    if (!reply.ok && reply.code == "readonly") {
      // A follower: the primary is another address in the list.
      last_reply = reply;
      have_reply = true;
      close();
      current_ = (current_ + 1) % endpoints_.size();
      continue;
    }
    return reply;
  }
  if (have_reply) return last_reply;
  fail("rtp client: all " + std::to_string(options_.max_attempts) +
       " attempts failed; last error: " + last_error);
}

}  // namespace rtp
