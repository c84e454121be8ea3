#include "farm/coordinator.h"

#include <unistd.h>

#include <string_view>
#include <utility>

#include "obs/exposition.h"
#include "obs/progress.h"
#include "util/check.h"
#include "util/net.h"
#include "util/wire.h"

namespace farmer {
namespace farm {

namespace {

// An HTTP scrape request larger than this is dropped.
constexpr std::size_t kMaxHttpRequest = 1 << 16;

}  // namespace

Coordinator::Coordinator(const BinaryDataset& dataset,
                         const MinerOptions& options,
                         const Options& coordinator_options)
    : dataset_(dataset),
      miner_options_(options),
      options_(coordinator_options),
      miner_(dataset, options),
      fingerprint_(serve::SnapshotFingerprint::FromDataset(dataset)),
      params_(serve::SnapshotParams::FromMinerOptions(options)),
      loop_(net::EventLoop::Hooks{
          .make_conn = [] { return std::make_unique<Conn>(); },
          .on_read =
              [this](net::EventLoop::Conn& conn) {
                return OnRead(static_cast<Conn&>(conn));
              },
          // A Stop() neither re-queues nor counts leases: the drain
          // just flushes and closes.
          .on_close =
              [this](net::EventLoop::Conn& conn, bool draining) {
                if (!draining) RevokeHeld(static_cast<Conn&>(conn), false);
              },
          .on_wake =
              [this](const net::EventLoop::Wake& wake) { OnWake(wake); },
          // Every accepted socket stays on this one loop.
          .on_accept = nullptr,
      }) {
  if (options_.heartbeat_timeout_s <= 0) options_.heartbeat_timeout_s = 10.0;
  if (options_.metrics != nullptr) {
    obs::MetricsRegistry* m = options_.metrics;
    metrics_.active_workers = m->GetGauge("farm.active_workers");
    metrics_.leases_pending = m->GetGauge("farm.leases_pending");
    metrics_.leases_outstanding = m->GetGauge("farm.leases_outstanding");
    metrics_.nodes_per_sec = m->GetGauge("farm.nodes_per_sec");
    metrics_.leases_granted = m->GetCounter("farm.leases_granted");
    metrics_.releases = m->GetCounter("farm.leases_releases");
    metrics_.results = m->GetCounter("farm.results");
    metrics_.duplicate_results = m->GetCounter("farm.duplicate_results");
    metrics_.workers_rejected = m->GetCounter("farm.workers_rejected");
    metrics_.bytes_in = m->GetCounter("farm.bytes_in");
    metrics_.bytes_out = m->GetCounter("farm.bytes_out");
  }
}

Coordinator::~Coordinator() { Stop(); }

Status Coordinator::Start() {
  if (started_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("coordinator already started");
  }

  // Decompose before accepting anyone: the root visit is one node, and
  // doing it here keeps the loop thread free of mining work.
  const internal::FarmerMiner::FarmPlan& plan = miner_.PlanFarm();
  lease_total_ = plan.lease_rows.size();
  for (const std::uint32_t row : plan.lease_rows) {
    pending_.insert(row);
    leases_.emplace(row, LeaseState{});
  }
  if (lease_total_ == 0) {
    MutexLock lock(mutex_);
    complete_ = true;
  }

  const Status listening =
      net::OpenListener(options_.host, options_.port, &listen_fd_, &port_);
  if (!listening.ok()) return listening;
  const Status looping = loop_.Start({listen_fd_});
  if (!looping.ok()) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return looping;
  }
  started_.store(true, std::memory_order_release);
  return Status::Ok();
}

bool Coordinator::WaitForCompletion(double timeout_seconds) {
  MutexLock lock(mutex_);
  if (timeout_seconds <= 0) {
    while (!complete_) done_cv_.Wait(mutex_);
    return true;
  }
  const Deadline deadline = Deadline::After(timeout_seconds);
  while (!complete_) {
    const double left = deadline.SecondsRemaining();
    if (left <= 0) return false;
    done_cv_.WaitForSeconds(mutex_, left);
  }
  return true;
}

bool Coordinator::complete() const {
  MutexLock lock(mutex_);
  return complete_;
}

Coordinator::Stats Coordinator::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

std::size_t Coordinator::lease_total() const { return lease_total_; }

std::size_t Coordinator::lease_remaining() const {
  MutexLock lock(mutex_);
  return lease_total_ - static_cast<std::size_t>(stats_.results);
}

FarmerResult Coordinator::Finalize() {
  // Stop the loop first: afterwards nothing can append to collected_,
  // so the merge sees every accepted upload exactly once.
  Stop();
  std::vector<MineSegment> segments;
  MinerStats stats;
  {
    MutexLock lock(mutex_);
    FARMER_CHECK(complete_)
        << "Finalize() before every lease completed (call "
           "WaitForCompletion first)";
    segments = std::move(collected_);
    collected_.clear();
    stats = worker_stats_;
  }
  const internal::FarmerMiner::FarmPlan& plan = miner_.PlanFarm();
  for (const MineSegment& seg : plan.root_segments) segments.push_back(seg);
  stats.MergeFrom(plan.root_stats);
  return miner_.FinalizeFarm(std::move(segments), stats);
}

void Coordinator::Stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  loop_.Stop();
  ::close(listen_fd_);
  listen_fd_ = -1;
  started_.store(false, std::memory_order_release);
}

// farmer-lint: begin(event-loop)
// Everything between these markers runs on the coordinator's loop
// thread and must never block: replies queue on the connection for the
// loop to flush, and the merge (Finalize) happens on the caller thread
// after the loop exits.

bool Coordinator::OnRead(Conn& conn) {
  FARMER_DCHECK_CALLED_ON(loop_.checker());
  if (conn.state == ConnState::kPreamble) {
    switch (DetectFarmProtocol(conn.rbuf)) {
      case FarmDetect::kNeedMore:
        return true;
      case FarmDetect::kUnknown:
        return false;
      case FarmDetect::kFarm:
        conn.state = ConnState::kFarm;
        conn.rbuf.erase(0, kFarmPreambleSize);
        break;
      case FarmDetect::kHttp:
        conn.state = ConnState::kHttp;
        break;
    }
  }
  if (conn.state == ConnState::kHttp) return ServeScrape(conn);

  // Farm frames; none after one whose reply closes the connection.
  while (!conn.want_close) {
    std::size_t consumed = 0;
    std::uint8_t opcode = 0;
    std::string_view payload;
    std::string error;
    const wire::FrameExtract got =
        wire::ExtractFrame(conn.rbuf, kMaxFarmFramePayload, &consumed,
                           &opcode, &payload, &error);
    if (got == wire::FrameExtract::kNeedMore) return true;
    if (got == wire::FrameExtract::kError) return false;
    conn.since_frame.Restart();
    if (!HandleFrame(conn, opcode, payload)) return false;
    conn.rbuf.erase(0, consumed);
  }
  return true;
}

bool Coordinator::ServeScrape(Conn& conn) {
  // One response per connection, then close (HTTP/1.0 style, like the
  // serve listener's scrape surface).
  std::string path;
  if (!net::HttpRequestPath(conn.rbuf, &path)) {
    return conn.rbuf.size() <= kMaxHttpRequest;
  }
  conn.rbuf.clear();
  conn.Send(obs::ScrapeReply(path, options_.metrics));
  conn.want_close = true;
  return true;
}

bool Coordinator::HandleFrame(Conn& conn, std::uint8_t opcode,
                              std::string_view payload) {
  FARMER_DCHECK_CALLED_ON(loop_.checker());
  switch (static_cast<FarmOp>(opcode)) {
    case FarmOp::kHello:
      return HandleHello(conn, payload);
    case FarmOp::kLeaseRequest:
      return payload.empty() && HandleLeaseRequest(conn);
    case FarmOp::kHeartbeat:
      return HandleHeartbeat(conn, payload);
    case FarmOp::kResult:
      return HandleResult(conn, payload);
    default:
      // Coordinator-to-worker opcodes (or junk) from a worker: protocol
      // error, close.
      return false;
  }
}

bool Coordinator::HandleHello(Conn& conn, std::string_view payload) {
  FARMER_DCHECK_CALLED_ON(loop_.checker());
  if (conn.hello_done) return false;
  HelloMsg hello;
  if (!DecodeHello(payload, &hello).ok()) return false;

  HelloAckMsg ack;
  if (hello.version != kFarmProtocolVersion) {
    ack.reason = "protocol version mismatch";
  } else if (!(hello.fingerprint == fingerprint_)) {
    ack.reason = "dataset fingerprint mismatch";
  } else if (!(hello.params == params_)) {
    ack.reason = "mining parameter mismatch";
  } else {
    ack.accepted = true;
    ack.worker_id = next_worker_id_++;
  }
  if (ack.accepted) {
    conn.hello_done = true;
    conn.worker_id = ack.worker_id;
    conn.name = std::move(hello.worker_name);
    MutexLock lock(mutex_);
    ++stats_.workers_seen;
  } else {
    conn.want_close = true;
    if (metrics_.workers_rejected != nullptr) {
      metrics_.workers_rejected->Increment();
    }
    MutexLock lock(mutex_);
    ++stats_.workers_rejected;
  }
  conn.Send(EncodeHelloAck(ack));
  return true;
}

bool Coordinator::HandleLeaseRequest(Conn& conn) {
  FARMER_DCHECK_CALLED_ON(loop_.checker());
  if (!conn.hello_done) return false;
  if (!pending_.empty()) {
    const std::uint32_t row = *pending_.begin();
    pending_.erase(pending_.begin());
    LeaseState& lease = leases_[row];
    lease.status = LeaseStatus::kLeased;
    lease.lease_id = next_lease_id_++;
    conn.held.insert(row);
    if (metrics_.leases_granted != nullptr) {
      metrics_.leases_granted->Increment();
    }
    {
      MutexLock lock(mutex_);
      ++stats_.leases_granted;
    }
    LeaseGrantMsg grant;
    grant.lease_id = lease.lease_id;
    grant.root_row = row;
    conn.Send(EncodeLeaseGrant(grant));
    return true;
  }
  if (done_count_ == lease_total_) {
    conn.Send(EncodeEmptyFrame(FarmOp::kDone));
    return true;
  }
  // Everything is leased out but not merged yet; the worker backs off
  // and asks again (it may yet inherit a re-leased row).
  conn.Send(EncodeEmptyFrame(FarmOp::kNoWork));
  return true;
}

bool Coordinator::HandleHeartbeat(Conn& conn, std::string_view payload) {
  FARMER_DCHECK_CALLED_ON(loop_.checker());
  if (!conn.hello_done) return false;
  HeartbeatMsg beat;
  if (!DecodeHeartbeat(payload, &beat).ok()) return false;
  conn.last_nodes_per_sec = beat.nodes_per_sec;
  return true;
}

bool Coordinator::HandleResult(Conn& conn, std::string_view payload) {
  FARMER_DCHECK_CALLED_ON(loop_.checker());
  if (!conn.hello_done) return false;
  ResultMsg msg;
  if (!DecodeResult(payload, &msg).ok()) return false;
  auto it = leases_.find(msg.root_row);
  if (it == leases_.end()) return false;  // Never a lease: protocol error.
  conn.held.erase(msg.root_row);

  ResultAckMsg ack;
  ack.lease_id = msg.lease_id;
  if (it->second.status == LeaseStatus::kDone) {
    // A re-leased row finished twice (or a duplicate retransmit). First
    // upload won; this one is discarded before it can reach the merge.
    ack.fresh = false;
    if (metrics_.duplicate_results != nullptr) {
      metrics_.duplicate_results->Increment();
    }
    MutexLock lock(mutex_);
    ++stats_.duplicate_results;
    conn.Send(EncodeResultAck(ack));
    return true;
  }

  std::vector<MineSegment> segments;
  if (!DecodeSegments(msg.segments_wire, dataset_.num_rows(), &segments)
           .ok()) {
    return false;
  }
  it->second.status = LeaseStatus::kDone;
  pending_.erase(msg.root_row);
  ++done_count_;
  ack.fresh = true;
  if (metrics_.results != nullptr) metrics_.results->Increment();
  {
    MutexLock lock(mutex_);
    ++stats_.results;
    for (MineSegment& seg : segments) {
      collected_.push_back(std::move(seg));
    }
    worker_stats_.nodes_visited += msg.nodes_visited;
    if (msg.mine_seconds > worker_stats_.mine_seconds) {
      worker_stats_.mine_seconds = msg.mine_seconds;
    }
  }
  if (miner_options_.progress != nullptr) {
    miner_options_.progress->root_done.fetch_add(1,
                                                 std::memory_order_relaxed);
  }
  CheckCompletion();
  conn.Send(EncodeResultAck(ack));
  return true;
}

void Coordinator::RevokeHeld(Conn& conn, bool notify) {
  FARMER_DCHECK_CALLED_ON(loop_.checker());
  for (const std::uint32_t row : conn.held) {
    auto it = leases_.find(row);
    if (it == leases_.end() || it->second.status != LeaseStatus::kLeased) {
      continue;
    }
    // Book-keeping strictly before the notify: the wire is observable,
    // so a peer that saw the revoke frame must also see the release in
    // stats() and the row back in the pending set.
    const std::uint64_t stale_lease = it->second.lease_id;
    it->second.status = LeaseStatus::kPending;
    pending_.insert(row);
    if (metrics_.releases != nullptr) metrics_.releases->Increment();
    {
      MutexLock lock(mutex_);
      ++stats_.releases;
    }
    if (notify) {
      RevokeMsg revoke;
      revoke.lease_id = stale_lease;
      conn.Send(EncodeRevoke(revoke));
      loop_.Flush(conn);
    }
  }
  conn.held.clear();
}

void Coordinator::OnWake(const net::EventLoop::Wake& wake) {
  loop_.ForEach([this](net::EventLoop::Conn& base) {
    Conn& conn = static_cast<Conn&>(base);
    if (conn.held.empty() ||
        conn.since_frame.ElapsedSeconds() <= options_.heartbeat_timeout_s) {
      return;
    }
    // Silent past the deadline: revoke (the worker, if alive, abandons
    // the lease on receipt) and hand the rows to the next requester.
    // The connection itself stays open — a stalled worker may recover
    // and take fresh leases.
    RevokeHeld(conn, /*notify=*/true);
  });
  PublishGauges();
  if (metrics_.bytes_in != nullptr) {
    metrics_.bytes_in->Add(wake.bytes_in);
    metrics_.bytes_out->Add(wake.bytes_out);
  }
}

void Coordinator::CheckCompletion() {
  FARMER_DCHECK_CALLED_ON(loop_.checker());
  if (done_count_ != lease_total_) return;
  // Tell every connected worker the farm is finished before the caller
  // tears the loop down; without the broadcast an idle worker only
  // sees its socket die and wastes its reconnect budget.
  loop_.ForEach([this](net::EventLoop::Conn& base) {
    Conn& conn = static_cast<Conn&>(base);
    if (!conn.hello_done || conn.want_close) return;
    conn.Send(EncodeEmptyFrame(FarmOp::kDone));
    loop_.Flush(conn);
  });
  {
    MutexLock lock(mutex_);
    complete_ = true;
  }
  done_cv_.NotifyAll();
}

void Coordinator::PublishGauges() {
  if (options_.metrics == nullptr) return;
  std::size_t workers = 0;
  double nodes_per_sec = 0.0;
  std::size_t outstanding = 0;
  loop_.ForEach([&](net::EventLoop::Conn& base) {
    const Conn& conn = static_cast<const Conn&>(base);
    if (!conn.hello_done) return;
    ++workers;
    nodes_per_sec += conn.last_nodes_per_sec;
    outstanding += conn.held.size();
  });
  metrics_.active_workers->Set(static_cast<double>(workers));
  metrics_.nodes_per_sec->Set(nodes_per_sec);
  metrics_.leases_outstanding->Set(static_cast<double>(outstanding));
  metrics_.leases_pending->Set(static_cast<double>(pending_.size()));
}

// farmer-lint: end(event-loop)

}  // namespace farm
}  // namespace farmer
