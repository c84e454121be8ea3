#include "util/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <utility>

#include "util/net.h"

namespace farmer {
namespace net {
namespace {

// Wait timeout: how often the owner's per-wake hook runs its timeout
// scan on an otherwise quiet loop.
constexpr int kTickMs = 50;

constexpr int kMaxEvents = 128;

// recv() chunk size and the per-wake read cap. Leftover bytes stay in
// the kernel buffer and level-triggered epoll reports the socket
// readable again on the next wait.
constexpr std::size_t kReadChunk = 65536;
constexpr std::size_t kMaxReadPerWake = 256 * 1024;

// Queued sends coalesced into one vectored write (well under IOV_MAX).
constexpr int kMaxIov = 64;

// A send queue reclaims its fully-written prefix once it is this long.
constexpr std::size_t kReclaimSent = 64;

}  // namespace

EventLoop::~EventLoop() { Stop(); }

Status EventLoop::Start(const std::vector<int>& listeners) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  listeners_ = listeners;
  bool ok = epoll_fd_ >= 0 && wake_fd_ >= 0 && Watch(wake_fd_);
  for (const int fd : listeners_) ok = ok && SetNonBlocking(fd) && Watch(fd);
  if (!ok) {
    const std::string err = ErrnoString(errno);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    epoll_fd_ = wake_fd_ = -1;
    return Status::IoError("event loop setup: " + err);
  }
  stopping_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { Run(); });
  return Status::Ok();
}

void EventLoop::Adopt(int fd) {
  {
    MutexLock lock(inbox_mutex_);
    inbox_.push_back(fd);
  }
  Wakeup();
}

void EventLoop::Stop() {
  if (!thread_.joinable()) return;
  stopping_.store(true, std::memory_order_release);
  Wakeup();
  thread_.join();
  ::close(epoll_fd_);
  ::close(wake_fd_);
  epoll_fd_ = wake_fd_ = -1;
}

void EventLoop::Wakeup() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  // EAGAIN means the counter is already non-zero: the loop is waking.
}

// farmer-lint: begin(event-loop)
// Everything between these markers runs on the loop thread and must
// never block: no file I/O, no sleeps, no blocking sockets
// (tools/farmer_lint.py, rule `event-loop-blocking`). The sockets are
// non-blocking; recv and the vectored send return EAGAIN instead of
// parking the loop.

void EventLoop::Run() {
  // First touch binds the checker to this thread.
  FARMER_DCHECK_CALLED_ON(checker_);
  std::array<epoll_event, kMaxEvents> events;
  while (true) {
    const int n = ::epoll_wait(epoll_fd_, events.data(), kMaxEvents, kTickMs);
    wake_ = Wake{};
    if (stopping_.load(std::memory_order_acquire)) break;
    AdoptInbox();
    for (int i = 0; i < n; ++i) {
      const epoll_event& ev = events[static_cast<std::size_t>(i)];
      const int fd = ev.data.fd;
      if (fd == wake_fd_) {
        std::uint64_t junk;
        while (::read(wake_fd_, &junk, sizeof(junk)) > 0) {
        }
        continue;
      }
      if (std::find(listeners_.begin(), listeners_.end(), fd) !=
          listeners_.end()) {
        AcceptReady(fd);
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      Conn& conn = *it->second;
      bool alive = (ev.events & (EPOLLERR | EPOLLHUP)) == 0;
      if (alive && (ev.events & EPOLLOUT) != 0) alive = Flush(conn);
      if (alive && (ev.events & EPOLLIN) != 0) alive = ReadReady(conn);
      if (!alive) Close(conn);
    }
    hooks_.on_wake(wake_);
  }
  // Drain. Stop() set the flag after any Adopt() it follows, so this
  // sweep sees every such socket. Each connection gets one best-effort
  // flush (peers that are reading get their queued bytes), then closes.
  AdoptInbox();
  for (auto& entry : conns_) {
    Flush(*entry.second);
    hooks_.on_close(*entry.second, /*draining=*/true);
    ::close(entry.first);
  }
  conns_.clear();
  open_.store(0, std::memory_order_relaxed);
  hooks_.on_wake(wake_);
}

void EventLoop::AdoptInbox() {
  std::vector<int> fresh;
  {
    MutexLock lock(inbox_mutex_);
    fresh.swap(inbox_);
  }
  for (const int fd : fresh) Register(fd);
}

bool EventLoop::Watch(int fd) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  return ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0;
}

void EventLoop::Register(int fd) {
  std::unique_ptr<Conn> conn = hooks_.make_conn();
  conn->fd_ = fd;
  conn->events_ = EPOLLIN;
  if (!Watch(fd)) {
    hooks_.on_close(*conn, /*draining=*/false);
    ::close(fd);
    return;
  }
  conns_.emplace(fd, std::move(conn));
  open_.fetch_add(1, std::memory_order_relaxed);
}

void EventLoop::AcceptReady(int listener) {
  while (true) {
    const int fd =
        ::accept4(listener, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN / transient failure: next wake retries.
    SetTcpNoDelay(fd);
    if (!hooks_.on_accept || hooks_.on_accept(listener, fd)) Register(fd);
  }
}

bool EventLoop::ReadReady(Conn& conn) {
  char chunk[kReadChunk];
  std::size_t got = 0;
  while (got < kMaxReadPerWake) {
    const ssize_t n = ::recv(conn.fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      conn.rbuf.append(chunk, static_cast<std::size_t>(n));
      got += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) {
      conn.peer_closed_ = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    return false;
  }
  wake_.bytes_in += got;
  if (!hooks_.on_read(conn) || !Flush(conn)) return false;
  if (conn.peer_closed_) {
    // Half-closed peer (shutdown(SHUT_WR)): deliver what is still
    // queued, then close once it drains. Flush() already dropped the
    // read interest, so the EOF stops waking the loop.
    if (!conn.HasPending()) return false;
    conn.want_close = true;
  }
  return true;
}

bool EventLoop::Flush(Conn& conn) {
  FARMER_DCHECK_CALLED_ON(checker_);
  const bool was_stalled = (conn.events_ & EPOLLOUT) != 0;
  while (conn.HasPending()) {
    iovec iov[kMaxIov];
    int cnt = 0;
    for (std::size_t i = conn.out_head_;
         i < conn.outq_.size() && cnt < kMaxIov; ++i) {
      const std::string& s = conn.outq_[i];
      const std::size_t off = (i == conn.out_head_) ? conn.out_off_ : 0;
      iov[cnt].iov_base = const_cast<char*>(s.data() + off);
      iov[cnt].iov_len = s.size() - off;
      ++cnt;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(cnt);
    const ssize_t n = ::sendmsg(conn.fd_, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;
    }
    wake_.bytes_out += static_cast<std::uint64_t>(n);
    conn.stall_.Restart();
    conn.out_off_ += static_cast<std::size_t>(n);
    while (conn.HasPending() &&
           conn.out_off_ >= conn.outq_[conn.out_head_].size()) {
      conn.out_off_ -= conn.outq_[conn.out_head_++].size();
    }
  }
  if (!conn.HasPending()) {
    conn.outq_.clear();
    conn.out_head_ = 0;
    conn.out_off_ = 0;
    UpdateInterest(conn);
    return !conn.want_close;
  }
  // Socket full: reclaim the fully-sent prefix once it grows, then wait
  // for EPOLLOUT. A stall counts once, when the output first backs up.
  if (conn.out_head_ >= kReclaimSent) {
    conn.outq_.erase(conn.outq_.begin(),
                     conn.outq_.begin() +
                         static_cast<std::ptrdiff_t>(conn.out_head_));
    conn.out_head_ = 0;
  }
  if (!was_stalled) ++wake_.write_stalls;
  UpdateInterest(conn);
  return true;
}

void EventLoop::UpdateInterest(Conn& conn) {
  std::uint32_t want = conn.peer_closed_ ? 0u : EPOLLIN;
  if (conn.HasPending()) want |= EPOLLOUT;
  if (want == conn.events_) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.fd = conn.fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd_, &ev) == 0) {
    conn.events_ = want;
  }
}

void EventLoop::Close(Conn& conn) {
  FARMER_DCHECK_CALLED_ON(checker_);
  const int fd = conn.fd_;
  hooks_.on_close(conn, /*draining=*/false);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  conns_.erase(fd);
  open_.fetch_sub(1, std::memory_order_relaxed);
}

// farmer-lint: end(event-loop)

}  // namespace net
}  // namespace farmer
