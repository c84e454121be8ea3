#ifndef FARMER_UTIL_NET_H_
#define FARMER_UTIL_NET_H_

#include <string>
#include <string_view>

#include "util/status.h"

namespace farmer {
namespace net {

/// Shared POSIX socket helpers for the serve and farm network layers
/// and their CLI clients. Everything here is IPv4 + numeric addresses
/// (inet_pton): the servers bind loopback or explicit interface
/// addresses, never hostnames, and keeping resolution out of the
/// library keeps every call non-blocking and deterministic.

/// Thread-safe errno rendering. std::strerror may hand back a shared
/// static buffer (clang-tidy concurrency-mt-unsafe), so this goes
/// through strerror_r, absorbing both the XSI and GNU flavors.
std::string ErrnoString(int err);

/// Puts `fd` into non-blocking mode. False when fcntl fails.
bool SetNonBlocking(int fd);

/// Disables Nagle's algorithm (TCP_NODELAY). Best-effort: a failure
/// only costs latency, so the error is ignored.
void SetTcpNoDelay(int fd);

/// Creates a bound, listening TCP socket on host:port (SO_REUSEADDR).
/// On success fills *out_fd and *out_port, the latter resolving
/// ephemeral (port 0) binds via getsockname.
Status OpenListener(const std::string& host, int port, int* out_fd,
                    int* out_port);

/// Blocking connect to host:port with an overall timeout
/// (timeout_seconds <= 0 blocks indefinitely). On success the socket
/// is back in blocking mode and *out_fd owns it.
Status ConnectToHost(const std::string& host, int port,
                     double timeout_seconds, int* out_fd);

/// Writes all of `data`, retrying on EINTR, MSG_NOSIGNAL so a dead
/// peer surfaces as an error instead of SIGPIPE. False on any other
/// send failure.
bool SendAll(int fd, std::string_view data);

/// Minimal HTTP/1.0 response — enough for curl and a Prometheus
/// scraper, always Connection: close.
std::string HttpResponse(const char* status_line, const char* content_type,
                         std::string_view body);

/// Cuts the path out of a buffered HTTP request ("/metrics" for
/// "GET /metrics?x=1 HTTP/1.0"; the query string is dropped) once the
/// request head is complete, i.e. ends in a blank line (CRLF or bare
/// LF). False while the head is still arriving. Headers are ignored.
bool HttpRequestPath(std::string_view buffered, std::string* path);

}  // namespace net
}  // namespace farmer

#endif  // FARMER_UTIL_NET_H_
