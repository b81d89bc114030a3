// Child processes (rtpd, rtprouter) and socket plumbing for the online
// workloads.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include <sys/types.h>

namespace perfbench {

/// A spawned server process.  stdout goes to /dev/null and stderr to
/// `log_path`, which wait_listening() polls for the "listening on" line.
/// The destructor stops the process (SIGTERM, then SIGKILL after a grace
/// period) and reaps it.
class Child {
 public:
  Child(const std::vector<std::string>& argv, const std::string& log_path);
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Port from the "<name> listening on 127.0.0.1:<port>" stderr line;
  /// throws when the process exits or `timeout_s` passes first.
  std::uint16_t wait_listening(double timeout_s);
  /// Peak resident set of the live process in MiB.
  double peak_rss_mb() const;
  /// SIGTERM, wait up to `grace_s`, then SIGKILL; always reaps.
  void stop(double grace_s = 5.0);

 private:
  pid_t pid_ = -1;
  std::string log_path_;
};

/// Connected, TCP_NODELAY socket to 127.0.0.1:port; throws on failure.
int connect_local(std::uint16_t port);

/// Read one '\n'-terminated line (without the newline) from a blocking
/// socket; false on EOF or error.  Byte-at-a-time: for greetings only.
bool read_line_slow(int fd, std::string* line);

/// Send `line` + '\n' and read one reply line; throws on transport failure.
std::string exchange(int fd, const std::string& line);

}  // namespace perfbench
