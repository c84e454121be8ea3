#ifndef FARMER_UTIL_EVENT_LOOP_H_
#define FARMER_UTIL_EVENT_LOOP_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/status.h"
#include "util/sync.h"
#include "util/timer.h"

namespace farmer {
namespace net {

/// One epoll event-loop thread owning a set of non-blocking TCP
/// connections: the socket I/O under the serve shards and the farm
/// coordinator, which keep only their protocol and policy.
///
/// The loop owns the epoll set, an eventfd wake and a 50 ms tick; an
/// inbox through which other threads hand it sockets (Adopt); optional
/// listeners it accepts from itself, whose owner may pass each new
/// socket on to another loop; and per connection a read buffer,
/// a vectored send queue and a send-stall stopwatch. Epoll is
/// level-triggered: a read takes at most 256 KiB per wake, so one
/// fire-hosing peer cannot starve the rest, and EPOLLOUT is armed only
/// while output waits behind a full socket. A peer that half-closes
/// still gets what is queued for it.
///
/// Start(), Adopt(), Stop() and connections() may be called from any
/// thread; everything else, the Hooks included, runs on the loop
/// thread, which alone touches connection state (checker() asserts
/// it). Stop() takes in every socket adopted before the call, flushes
/// each connection once, closes it and joins the thread.
class EventLoop {
 public:
  /// Per-connection state. Owners derive their protocol state from it;
  /// hooks receive the base and static_cast it back.
  class Conn {
   public:
    virtual ~Conn() = default;

    /// Queues bytes for the peer. The loop flushes after on_read; from
    /// anywhere else, follow up with EventLoop::Flush.
    void Send(std::string bytes) {
      if (!HasPending()) stall_.Restart();
      outq_.push_back(std::move(bytes));
    }
    bool HasPending() const { return out_head_ < outq_.size(); }
    /// Queued sends not yet fully written.
    std::size_t pending() const { return outq_.size() - out_head_; }
    /// Seconds the pending output has gone without send progress.
    double stall_seconds() const { return stall_.ElapsedSeconds(); }

    /// Received bytes the owner has not consumed yet; on_read erases
    /// what it parses.
    std::string rbuf;
    /// Close once the send queue drains.
    bool want_close = false;

   private:
    friend class EventLoop;
    int fd_ = -1;
    // outq_[out_head_..] are unsent; out_off_ bytes of
    // outq_[out_head_] are already gone.
    std::vector<std::string> outq_;
    std::size_t out_head_ = 0;
    std::size_t out_off_ = 0;
    std::uint32_t events_ = 0;  // Epoll interest currently registered.
    bool peer_closed_ = false;
    Stopwatch stall_;  // Restarted on enqueue-when-idle and on progress.
  };

  /// One wake's socket traffic, for Hooks::on_wake. Flushes the hook
  /// makes itself count toward the same wake, so read the counters
  /// after them.
  struct Wake {
    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
    /// Connections whose output first backed up behind a full socket.
    std::uint64_t write_stalls = 0;
    /// Started when the wait returned: the wake's loop time so far.
    Stopwatch watch;
  };

  struct Hooks {
    /// Builds the owner's state for a new connection.
    std::function<std::unique_ptr<Conn>()> make_conn;
    /// New bytes are in conn.rbuf (or the peer closed its side): parse
    /// what is complete and Send() the replies. False closes the
    /// connection at once, unflushed.
    std::function<bool(Conn& conn)> on_read;
    /// Exactly once per connection, just before its socket closes;
    /// `draining` marks the closes of Stop()'s drain.
    std::function<void(Conn& conn, bool draining)> on_close;
    /// Once per wake after its events, and once more after the drain:
    /// the owner's timeout scan and metrics.
    std::function<void(const Wake& wake)> on_wake;
    /// Optional: a socket `fd` just accepted from `listener` (already
    /// non-blocking, TCP_NODELAY). True keeps it on this loop; false
    /// means the owner took it (handed it to another loop, or closed
    /// it). Null keeps every socket.
    std::function<bool(int listener, int fd)> on_accept;
  };

  explicit EventLoop(Hooks hooks) : hooks_(std::move(hooks)) {}
  /// Stop()s.
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Creates the epoll set and the wake, registers `listeners` (made
  /// non-blocking; the caller closes them after Stop()) and starts the
  /// loop thread. A loop that on_accept hands sockets to must be
  /// started first and stopped after this one.
  Status Start(const std::vector<int>& listeners = {});

  /// Hands a connected non-blocking socket to the loop.
  void Adopt(int fd);

  /// Idempotent; not for concurrent callers.
  void Stop();

  /// Open connections (relaxed; any thread).
  std::size_t connections() const {
    return open_.load(std::memory_order_relaxed);
  }

  /// Writes what the socket accepts and arms EPOLLOUT for the rest.
  /// False = close the connection: a send error, or the queue drained
  /// with want_close set.
  bool Flush(Conn& conn);

  /// Closes now: on_close, then the socket.
  void Close(Conn& conn);

  /// Visits every connection. `f` must not Close() any: collect them
  /// and close after the walk.
  template <typename F>
  void ForEach(F&& f) {
    FARMER_DCHECK_CALLED_ON(checker_);
    for (auto& entry : conns_) f(*entry.second);
  }

  /// Owners assert their loop-confined state against it.
  const ThreadChecker& checker() const { return checker_; }

 private:
  void Run();
  void Wakeup();
  void AdoptInbox();
  /// Adds `fd` to the epoll set for reading. False on failure.
  bool Watch(int fd);
  void Register(int fd);
  void AcceptReady(int listener);
  /// Reads up to the per-wake cap, runs on_read, flushes. False = close.
  bool ReadReady(Conn& conn);
  /// Re-registers the interest the connection needs, if it changed.
  void UpdateInterest(Conn& conn);

  Hooks hooks_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::vector<int> listeners_;
  std::thread thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::size_t> open_{0};
  Mutex inbox_mutex_;
  std::vector<int> inbox_ FARMER_GUARDED_BY(inbox_mutex_);

  // Loop-thread confined.
  ThreadChecker checker_;
  std::unordered_map<int, std::unique_ptr<Conn>> conns_;
  Wake wake_;
};

}  // namespace net
}  // namespace farmer

#endif  // FARMER_UTIL_EVENT_LOOP_H_
