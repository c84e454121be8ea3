#ifndef FARMER_OBS_TRACE_H_
#define FARMER_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/status.h"
#include "util/thread_pool.h"

namespace farmer {
namespace obs {

/// Tracing facility for the mining pipeline: per-lane single-producer
/// event ring buffers plus a Chrome Trace Event Format exporter, so a
/// run's `--trace-out` JSON loads directly into chrome://tracing or
/// Perfetto.
///
/// Lane 0 is the control thread (dataset loading, the deterministic
/// merge, one-thread MineLB); lane w+1 is pool worker w. Each lane is written
/// by exactly one thread at a time, which keeps Push() lock-free and
/// wait-free; export happens after the pool has drained (Wait()
/// establishes the necessary happens-before edge).

/// One trace event. All strings must be string literals (or otherwise
/// outlive the session): events are POD-copied into the ring, never
/// allocated.
struct TraceEvent {
  const char* name = nullptr;
  char phase = 'i';        // 'X' complete span, 'i' instant.
  std::uint32_t lane = 0;
  std::uint64_t ts_ns = 0;   // Session-relative start time.
  std::uint64_t dur_ns = 0;  // 'X' only.
  const char* arg1_name = nullptr;
  std::int64_t arg1 = 0;
  const char* arg2_name = nullptr;
  std::int64_t arg2 = 0;
};

/// Fixed-capacity single-producer ring. Overflow overwrites the oldest
/// events — the newest window always survives — and the number of
/// overwritten (dropped) events is reported so truncated traces are
/// detectable instead of silently misleading.
class EventRing {
 public:
  /// `capacity` is rounded up to a power of two (minimum 2).
  explicit EventRing(std::size_t capacity);

  /// Single-producer append; wait-free.
  void Push(const TraceEvent& e);

  std::size_t capacity() const { return slots_.size(); }
  std::uint64_t pushed() const {
    return next_.load(std::memory_order_relaxed);
  }
  std::uint64_t dropped() const {
    const std::uint64_t n = pushed();
    return n > slots_.size() ? n - slots_.size() : 0;
  }

  /// The surviving events, oldest first. Only valid when the producer
  /// is quiescent (e.g. after ThreadPool::Wait()).
  std::vector<TraceEvent> Snapshot() const;

 private:
  std::vector<TraceEvent> slots_;
  std::atomic<std::uint64_t> next_{0};
};

/// A tracing session: one EventRing per lane plus the wall-clock origin
/// all timestamps are relative to.
class TraceSession {
 public:
  static constexpr std::size_t kMainLane = 0;
  static constexpr std::size_t kDefaultEventsPerLane = 1 << 16;

  /// `num_lanes` = 1 control lane + worker lanes; a session built for a
  /// run with T mining threads wants `num_lanes = T + 1`.
  explicit TraceSession(
      std::size_t num_lanes,
      std::size_t events_per_lane = kDefaultEventsPerLane);

  std::size_t num_lanes() const { return lanes_.size(); }

  /// Nanoseconds since the session began (steady clock).
  std::uint64_t NowNs() const;

  /// Appends `e` to its lane's ring (lane clamped into range). Must be
  /// the only producer on that lane at the time of the call.
  void Emit(const TraceEvent& e);

  /// Convenience: an instant event at now.
  void Instant(std::size_t lane, const char* name,
               const char* arg1_name = nullptr, std::int64_t arg1 = 0,
               const char* arg2_name = nullptr, std::int64_t arg2 = 0);

  /// Convenience: a complete span from `start_ns` (a prior NowNs()) to
  /// now.
  void EndSpan(std::size_t lane, const char* name, std::uint64_t start_ns,
               const char* arg1_name = nullptr, std::int64_t arg1 = 0,
               const char* arg2_name = nullptr, std::int64_t arg2 = 0);

  std::uint64_t total_dropped() const;
  const EventRing& ring(std::size_t lane) const { return *lanes_[lane]; }

  /// Chrome Trace Event Format: {"traceEvents": [...], ...}. Includes
  /// process/thread metadata events naming each lane and a
  /// "farmer_dropped_events" top-level field (ignored by viewers).
  /// Call only while no producer is active.
  std::string ToJson() const;
  Status WriteJsonFile(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<std::unique_ptr<EventRing>> lanes_;
};

/// RAII complete-span: records the start time on construction and emits
/// one 'X' event on destruction. A null session makes every operation a
/// no-op, so call sites need no branching of their own.
class ScopedSpan {
 public:
  ScopedSpan(TraceSession* session, std::size_t lane, const char* name)
      : session_(session), lane_(lane), name_(name),
        start_ns_(session != nullptr ? session->NowNs() : 0) {}

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attaches up to two numeric args to the span (extra calls ignored).
  void Arg(const char* name, std::int64_t value) {
    if (arg1_name_ == nullptr) {
      arg1_name_ = name;
      arg1_ = value;
    } else if (arg2_name_ == nullptr) {
      arg2_name_ = name;
      arg2_ = value;
    }
  }

  ~ScopedSpan() {
    if (session_ != nullptr) {
      session_->EndSpan(lane_, name_, start_ns_, arg1_name_, arg1_,
                        arg2_name_, arg2_);
    }
  }

 private:
  TraceSession* session_;
  std::size_t lane_;
  const char* name_;
  std::uint64_t start_ns_;
  const char* arg1_name_ = nullptr;
  std::int64_t arg1_ = 0;
  const char* arg2_name_ = nullptr;
  std::int64_t arg2_ = 0;
};

/// ThreadPool observer that records successful steals as instant events
/// on the thief's lane (worker w -> lane w + 1), annotated with the
/// victim worker and the number of tasks transferred.
class TracingPoolObserver : public PoolObserver {
 public:
  explicit TracingPoolObserver(TraceSession* session)
      : session_(session) {}

  void OnSteal(std::size_t thief, std::size_t victim,
               std::size_t tasks_taken) override;

 private:
  TraceSession* session_;
};

}  // namespace obs
}  // namespace farmer

#endif  // FARMER_OBS_TRACE_H_
