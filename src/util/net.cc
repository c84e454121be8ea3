#include "util/net.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstring>

namespace farmer {
namespace net {

namespace {

// The overload pair absorbs both strerror_r flavors (XSI returns int,
// GNU returns the message pointer) without feature-macro guessing.
[[maybe_unused]] const char* StrerrorResult(int rc, const char* buf) {
  return rc == 0 ? buf : "unknown error";
}
[[maybe_unused]] const char* StrerrorResult(const char* msg,
                                            const char* /*buf*/) {
  return msg;
}

bool ParseAddr(const std::string& host, int port, sockaddr_in* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(static_cast<std::uint16_t>(port));
  return ::inet_pton(AF_INET, host.c_str(), &addr->sin_addr) == 1;
}

}  // namespace

std::string ErrnoString(int err) {
  char buf[256];
  buf[0] = '\0';
  return StrerrorResult(strerror_r(err, buf, sizeof(buf)), buf);
}

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void SetTcpNoDelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Status OpenListener(const std::string& host, int port, int* out_fd,
                    int* out_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError("socket(): " + ErrnoString(errno));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  if (!ParseAddr(host, port, &addr)) {
    ::close(fd);
    return Status::InvalidArgument("bad listen address: " + host);
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const std::string err = ErrnoString(errno);
    ::close(fd);
    return Status::IoError("bind(): " + err);
  }
  if (::listen(fd, SOMAXCONN) != 0) {
    const std::string err = ErrnoString(errno);
    ::close(fd);
    return Status::IoError("listen(): " + err);
  }
  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    const std::string err = ErrnoString(errno);
    ::close(fd);
    return Status::IoError("getsockname(): " + err);
  }
  *out_fd = fd;
  *out_port = ntohs(bound.sin_port);
  return Status::Ok();
}

Status ConnectToHost(const std::string& host, int port,
                     double timeout_seconds, int* out_fd) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError("socket(): " + ErrnoString(errno));
  sockaddr_in addr;
  if (!ParseAddr(host, port, &addr)) {
    ::close(fd);
    return Status::InvalidArgument("bad host address: " + host);
  }
  if (timeout_seconds <= 0.0) {
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      const std::string err = ErrnoString(errno);
      ::close(fd);
      return Status::IoError("connect " + host + ":" +
                             std::to_string(port) + ": " + err);
    }
    *out_fd = fd;
    return Status::Ok();
  }

  // Timed connect: go non-blocking, start the connect, wait for
  // writability, read SO_ERROR for the real outcome, restore blocking.
  if (!SetNonBlocking(fd)) {
    const std::string err = ErrnoString(errno);
    ::close(fd);
    return Status::IoError("fcntl(O_NONBLOCK): " + err);
  }
  const int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr));
  if (rc != 0) {
    if (errno != EINPROGRESS) {
      const std::string err = ErrnoString(errno);
      ::close(fd);
      return Status::IoError("connect " + host + ":" +
                             std::to_string(port) + ": " + err);
    }
    pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLOUT;
    pfd.revents = 0;
    const int timeout_ms =
        static_cast<int>(std::lround(timeout_seconds * 1000.0));
    int polled;
    do {
      polled = ::poll(&pfd, 1, timeout_ms < 1 ? 1 : timeout_ms);
    } while (polled < 0 && errno == EINTR);
    if (polled < 0) {
      const std::string err = ErrnoString(errno);
      ::close(fd);
      return Status::IoError("poll(): " + err);
    }
    if (polled == 0) {
      ::close(fd);
      return Status::IoError("connect " + host + ":" +
                             std::to_string(port) + ": timed out");
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0 ||
        so_error != 0) {
      const std::string err =
          ErrnoString(so_error != 0 ? so_error : errno);
      ::close(fd);
      return Status::IoError("connect " + host + ":" +
                             std::to_string(port) + ": " + err);
    }
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK) != 0) {
    const std::string err = ErrnoString(errno);
    ::close(fd);
    return Status::IoError("fcntl(restore blocking): " + err);
  }
  *out_fd = fd;
  return Status::Ok();
}

bool SendAll(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

std::string HttpResponse(const char* status_line, const char* content_type,
                         std::string_view body) {
  std::string out = "HTTP/1.0 ";
  out += status_line;
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out.append(body.data(), body.size());
  return out;
}

bool HttpRequestPath(std::string_view buffered, std::string* path) {
  if (buffered.find("\r\n\r\n") == std::string_view::npos &&
      buffered.find("\n\n") == std::string_view::npos) {
    return false;
  }
  // Request line: "<method> <path>[?query] <version>".
  std::string_view target = buffered.substr(0, buffered.find_first_of("\r\n"));
  target.remove_prefix(std::min(target.size(), target.find(' ') + 1));
  target = target.substr(0, target.find_first_of(" ?"));
  path->assign(target);
  return true;
}

}  // namespace net
}  // namespace farmer
