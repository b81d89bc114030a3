// rtlint fixture for the raw-socket rule.
// Never compiled; linted by test_tools_rtlint and kept out of src/ globs.
#include <sys/socket.h>

struct Pool {
  int connect(int fd);
  static int accept(int fd);
};

int fixture_raw_sockets(int listener, const sockaddr* addr, unsigned len) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);  // finding: raw global socket
  ::connect(fd, addr, len);                           // finding: raw global connect
  return ::accept(listener, nullptr, nullptr);        // finding: raw global accept
}

int fixture_clean_sockets(Pool& pool, int fd) {
  const int a = pool.connect(fd);  // member call: not flagged
  const int b = Pool::accept(fd);  // member qualification: not flagged
  const int socket = a + b;        // plain identifier: not flagged
  return socket;
}

int fixture_annotated_socket() {
  // rtlint: allow(raw-socket) fixture exercises the inline escape hatch
  return ::socket(AF_INET, SOCK_STREAM, 0);
}
