#include "serve/server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/exposition.h"
#include "serve/snapshot.h"
#include "util/net.h"

namespace farmer {
namespace serve {
namespace {

// Latency buckets, seconds: 10us .. 1s plus overflow.
std::vector<double> LatencyBounds() {
  return {1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0};
}

// Snapshot-swap timing buckets, seconds: reloads read a file and build
// an index, so the interesting range sits well above request latency.
std::vector<double> ReloadBounds() {
  return {1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0};
}

// The POSIX socket plumbing (listener setup, HTTP responses) lives in
// util/net, shared with the farm layer and the CLI clients; the
// listeners and the shard sockets themselves belong to util/event_loop.
using net::HttpResponse;
using net::OpenListener;

const char* SpanName(QueryRequest::Op op) {
  switch (op) {
    case QueryRequest::Op::kPing:
      return "serve.ping";
    case QueryRequest::Op::kStats:
      return "serve.stats";
    case QueryRequest::Op::kTopkConfidence:
    case QueryRequest::Op::kTopkChiSquare:
      return "serve.topk";
    case QueryRequest::Op::kContains:
      return "serve.contains";
    case QueryRequest::Op::kCover:
      return "serve.cover";
    case QueryRequest::Op::kFilter:
      return "serve.filter";
    case QueryRequest::Op::kReload:
      return "serve.reload";
    case QueryRequest::Op::kMetrics:
      return "serve.metrics";
  }
  return "serve.request";
}

}  // namespace

Server::Server(RuleGroupIndex index, const Options& options)
    : options_(options),
      cache_(options.cache_entries, options.cache_bytes),
      current_(std::make_shared<const VersionedIndex>(
          VersionedIndex{std::move(index), 1})) {
  if (options_.num_shards == 0) options_.num_shards = 1;
  if (options_.max_connections == 0) options_.max_connections = 1;
  if (options_.metrics != nullptr) {
    obs::MetricsRegistry* m = options_.metrics;
    metrics_.requests = m->GetCounter("serve.requests");
    metrics_.responses_ok = m->GetCounter("serve.responses_ok");
    metrics_.responses_error = m->GetCounter("serve.responses_error");
    metrics_.cache_hits = m->GetCounter("serve.cache_hits");
    metrics_.cache_misses = m->GetCounter("serve.cache_misses");
    metrics_.overloaded = m->GetCounter("serve.overloaded");
    metrics_.deadline_exceeded = m->GetCounter("serve.deadline_exceeded");
    metrics_.reloads = m->GetCounter("serve.reloads");
    metrics_.slow_queries = m->GetCounter("serve.slow_queries");
    metrics_.active_connections = m->GetGauge("serve.active_connections");
    metrics_.snapshot_version = m->GetGauge("serve.snapshot_version");
    metrics_.snapshot_version->Set(1.0);
    metrics_.cache_entries = m->GetGauge("serve.cache_entries");
    metrics_.cache_bytes = m->GetGauge("serve.cache_bytes");
    metrics_.cache_evictions = m->GetGauge("serve.cache_evictions");
    metrics_.cache_hit_ratio = m->GetGauge("serve.cache_hit_ratio");
    metrics_.latency =
        m->GetHistogram("serve.latency_seconds", LatencyBounds());
    metrics_.reload_seconds =
        m->GetHistogram("serve.reload_seconds", ReloadBounds());
    static_assert(static_cast<std::size_t>(QueryRequest::Op::kMetrics) + 1 ==
                      kOpCount,
                  "op_latency slot count out of sync with QueryRequest::Op");
    for (std::size_t i = 0; i < kOpCount; ++i) {
      const auto op = static_cast<QueryRequest::Op>(i);
      metrics_.op_latency[i] = m->GetHistogram(
          obs::LabeledName("serve.op_latency_seconds", {{"op", OpName(op)}}),
          LatencyBounds());
    }
    shard_metrics_.resize(options_.num_shards);
    for (std::size_t i = 0; i < options_.num_shards; ++i) {
      const std::string shard = std::to_string(i);
      ShardMetrics& sm = shard_metrics_[i];
      sm.connections = m->GetGauge(
          obs::LabeledName("serve.shard_connections", {{"shard", shard}}));
      sm.wakeups = m->GetCounter(
          obs::LabeledName("serve.shard_wakeups", {{"shard", shard}}));
      sm.loop_seconds = m->GetHistogram(
          obs::LabeledName("serve.shard_loop_seconds", {{"shard", shard}}),
          LatencyBounds());
      sm.pending_frames = m->GetGauge(
          obs::LabeledName("serve.shard_pending_frames", {{"shard", shard}}));
      sm.bytes_in = m->GetCounter(
          obs::LabeledName("serve.shard_bytes_in", {{"shard", shard}}));
      sm.bytes_out = m->GetCounter(
          obs::LabeledName("serve.shard_bytes_out", {{"shard", shard}}));
      sm.write_stalls = m->GetCounter(
          obs::LabeledName("serve.shard_write_stalls", {{"shard", shard}}));
    }
  }
}

Server::~Server() { Shutdown(); }

std::shared_ptr<const Server::VersionedIndex> Server::Current() const {
  MutexLock lock(current_mutex_);
  return current_;
}

std::shared_ptr<const RuleGroupIndex> Server::index() const {
  std::shared_ptr<const VersionedIndex> vi = Current();
  return std::shared_ptr<const RuleGroupIndex>(vi, &vi->index);
}

std::uint64_t Server::snapshot_version() const { return Current()->version; }

void Server::InstallIndex(RuleGroupIndex index) {
  // Serialize writers; readers wait only for a pointer copy. The new
  // VersionedIndex is fully built before the pointer flips, and old
  // versions stay alive until the last in-flight request drops its
  // shared_ptr.
  MutexLock lock(swap_mutex_);
  const std::uint64_t version = Current()->version + 1;
  std::shared_ptr<const VersionedIndex> next =
      std::make_shared<const VersionedIndex>(
          VersionedIndex{std::move(index), version});
  {
    // `next` takes the old version, released outside the readers' lock.
    MutexLock publish(current_mutex_);
    current_.swap(next);
  }
  cache_.DropVersionsBelow(version);
  if (metrics_.reloads != nullptr) metrics_.reloads->Increment();
  if (metrics_.snapshot_version != nullptr) {
    metrics_.snapshot_version->Set(static_cast<double>(version));
  }
}

Status Server::ReloadFromFile(const std::string& path) {
  Stopwatch watch;
  StatusOr<RuleGroupSnapshot> snapshot = LoadSnapshot(path);
  if (!snapshot.ok()) return snapshot.status();
  InstallIndex(
      RuleGroupIndex(std::move(snapshot).value(), options_.num_shards));
  // Load + index build + install: the full client-visible swap time.
  if (metrics_.reload_seconds != nullptr) {
    metrics_.reload_seconds->Observe(watch.ElapsedSeconds());
  }
  return Status::Ok();
}

Status Server::Start() {
  if (started_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("server already started");
  }

  const Status listening =
      OpenListener(options_.host, options_.port, &listen_fd_, &port_);
  if (!listening.ok()) return listening;

  if (options_.metrics_port >= 0) {
    const Status scrape = OpenListener(options_.host, options_.metrics_port,
                                       &metrics_listen_fd_, &metrics_port_);
    if (!scrape.ok()) {
      CloseListeners();
      return scrape;
    }
  }

  shards_.clear();
  for (std::size_t i = 0; i < options_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(this, i));
  }
  // Shard 0 accepts and hands sockets to the others, so they run first.
  std::vector<int> listeners = {listen_fd_};
  if (metrics_listen_fd_ >= 0) listeners.push_back(metrics_listen_fd_);
  next_shard_ = 0;
  for (std::size_t i = shards_.size(); i-- > 0;) {
    const Status looping =
        shards_[i]->loop.Start(i == 0 ? listeners : std::vector<int>{});
    if (looping.ok()) continue;
    for (auto& shard : shards_) shard->loop.Stop();
    shards_.clear();
    CloseListeners();
    return looping;
  }
  started_.store(true, std::memory_order_release);
  return Status::Ok();
}

void Server::Shutdown() {
  // Serialized: concurrent Shutdown() calls (say, a signal-driven stop
  // racing the destructor) must not both join the threads.
  MutexLock lock(shutdown_mutex_);
  if (!started_.load(std::memory_order_acquire)) return;
  // Shard 0 stops first, which ends accepting; every socket it handed
  // to another shard is then in that shard's inbox, and that shard's
  // own Stop() drains it. The listeners close once nothing polls them.
  for (auto& shard : shards_) shard->loop.Stop();
  CloseListeners();
  shards_.clear();
  started_.store(false, std::memory_order_release);
}

void Server::CloseListeners() {
  for (int* fd : {&listen_fd_, &metrics_listen_fd_}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
}

void Server::PublishActiveGauge() {
  if (metrics_.active_connections != nullptr) {
    metrics_.active_connections->Set(static_cast<double>(
        active_connections_.load(std::memory_order_relaxed)));
  }
}

Server::Shard::Shard(Server* server, std::size_t id)
    : sm(server->shard_metrics_.empty() ? nullptr
                                        : &server->shard_metrics_[id]),
      loop(net::EventLoop::Hooks{
          .make_conn =
              [server] {
                auto conn = std::make_unique<Conn>();
                conn->idle = Deadline::After(server->options_.idle_timeout_s);
                return conn;
              },
          .on_read =
              [server, id](net::EventLoop::Conn& conn) {
                server->ProcessBuffered(id, static_cast<Conn&>(conn));
                return true;
              },
          // Frees the admission slot Admit reserved.
          .on_close =
              [server](net::EventLoop::Conn&, bool) {
                server->active_connections_.fetch_sub(
                    1, std::memory_order_relaxed);
                server->PublishActiveGauge();
              },
          .on_wake =
              [server, this](const net::EventLoop::Wake& wake) {
                server->OnWake(*this, wake);
              },
          // Only shard 0 has listeners, so only its loop calls this.
          .on_accept = [server](int listener,
                                int fd) { return server->Admit(listener, fd); },
      }) {}

// farmer-lint: begin(event-loop)
// Everything between these markers runs on a shard's loop thread and
// must never block: no file I/O, no sleeps, no blocking sockets
// (tools/farmer_lint.py, rule `event-loop-blocking`). Request execution
// (ExecutePending and below) sits outside the region: the reload admin
// op deliberately reads a snapshot file on the shard thread, stalling
// only its own shard (and, on shard 0, the accepts behind it).

bool Server::Admit(int listener, int fd) {
  FARMER_DCHECK_CALLED_ON(shards_[0]->loop.checker());
  // Admission control. The slot is reserved here and released by the
  // owning shard's on_close. Only this thread takes slots, so a plain
  // check-then-add cannot overshoot the bound. Scrape-listener
  // connections always get a slot (telemetry must work mid-overload)
  // but are still counted, so the gauge never lies.
  if (listener != metrics_listen_fd_ &&
      active_connections_.load(std::memory_order_relaxed) >=
          options_.max_connections) {
    overloaded_.fetch_add(1, std::memory_order_relaxed);
    if (metrics_.overloaded != nullptr) metrics_.overloaded->Increment();
    // One non-blocking send: a peer with a full window just loses the
    // courtesy line.
    const std::string line =
        RenderError("overloaded", "connection limit reached") + "\n";
    [[maybe_unused]] const ssize_t sent =
        ::send(fd, line.data(), line.size(), MSG_NOSIGNAL);
    ::close(fd);
    return false;
  }
  active_connections_.fetch_add(1, std::memory_order_relaxed);
  PublishActiveGauge();

  const std::size_t target = next_shard_;
  next_shard_ = (next_shard_ + 1) % shards_.size();
  if (target == 0) return true;
  shards_[target]->loop.Adopt(fd);
  return false;
}

void Server::ProcessBuffered(std::size_t shard_id, Conn& conn) {
  FARMER_DCHECK_CALLED_ON(shards_[shard_id]->loop.checker());
  if (conn.mode == Conn::Mode::kDetect) {
    switch (DetectProtocol(conn.rbuf)) {
      case ProtocolDetect::kNeedMore:
        return;
      case ProtocolDetect::kJson:
        conn.mode = Conn::Mode::kJson;
        break;
      case ProtocolDetect::kBinary:
        conn.mode = Conn::Mode::kBinary;
        conn.rbuf.erase(0, kBinaryPreambleSize);
        break;
      case ProtocolDetect::kHttp:
        conn.mode = Conn::Mode::kHttp;
        break;
    }
  }
  if (conn.mode == Conn::Mode::kHttp) {
    HandleHttp(conn);
    conn.idle = Deadline::After(options_.idle_timeout_s);
    return;
  }

  // Request-scoped instrumentation is paid only when something will
  // consume it: the trace (parse span) or the slow-query log (parse
  // timing in the breakdown).
  const bool instr =
      options_.trace != nullptr || options_.slow_query_ms > 0;

  // Parse-then-execute: every complete request is cut off the buffer
  // and deadline-stamped before any of them runs, so the budget of a
  // pipelined request queued behind a slow one burns while it waits —
  // exactly as if the client had sent them one at a time.
  const auto stamp = [this](PendingRequest& p) {
    if (!p.parse.ok()) return;
    double budget_s = options_.default_deadline_s;
    if (p.request.deadline_ms > 0 &&
        p.request.deadline_ms / 1000.0 < budget_s) {
      budget_s = p.request.deadline_ms / 1000.0;
    }
    p.deadline = Deadline::After(budget_s);
  };

  std::vector<PendingRequest> batch;
  if (conn.mode == Conn::Mode::kJson) {
    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = conn.rbuf.find('\n', start);
      if (nl == std::string::npos) break;
      std::string line = conn.rbuf.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      PendingRequest p;
      if (instr) {
        p.parse_start_ns =
            options_.trace != nullptr ? options_.trace->NowNs() : 0;
        Stopwatch parse_watch;
        p.parse = ParseRequest(line, &p.request);
        p.parse_s = parse_watch.ElapsedSeconds();
        p.trace_id = ++conn.trace_seq;
      } else {
        p.parse = ParseRequest(line, &p.request);
      }
      stamp(p);
      batch.push_back(std::move(p));
    }
    if (start > 0) conn.rbuf.erase(0, start);
    // A line longer than the request cap can never become valid;
    // reject it and close rather than buffering without bound.
    if (conn.rbuf.size() > kMaxRequestBytes) {
      Enqueue(conn, FrameStatus::kBadRequest, 0,
              RenderError("bad_request", "request line too long"));
      conn.want_close = true;
      conn.rbuf.clear();
    }
  } else {
    std::size_t pos = 0;
    for (;;) {
      const std::string_view rest(conn.rbuf.data() + pos,
                                  conn.rbuf.size() - pos);
      std::size_t consumed = 0;
      std::uint8_t opcode = 0;
      std::string_view payload;
      std::string error;
      const FrameExtract got =
          ExtractFrame(rest, &consumed, &opcode, &payload, &error);
      if (got == FrameExtract::kNeedMore) break;
      if (got == FrameExtract::kError) {
        Enqueue(conn, FrameStatus::kBadRequest, 0,
                RenderError("bad_request", error));
        conn.want_close = true;
        conn.rbuf.clear();
        pos = 0;
        break;
      }
      PendingRequest p;
      p.binary = true;
      if (instr) {
        p.parse_start_ns =
            options_.trace != nullptr ? options_.trace->NowNs() : 0;
        Stopwatch parse_watch;
        p.parse = ParseBinaryRequest(opcode, payload, &p.request);
        p.parse_s = parse_watch.ElapsedSeconds();
        p.trace_id = p.request.bin_id != 0 ? p.request.bin_id
                                           : ++conn.trace_seq;
      } else {
        p.parse = ParseBinaryRequest(opcode, payload, &p.request);
      }
      stamp(p);
      batch.push_back(std::move(p));
      pos += consumed;
    }
    if (pos > 0) conn.rbuf.erase(0, pos);
  }

  if (batch.empty()) return;
  for (PendingRequest& p : batch) {
    ExecutePending(shard_id, conn, p);
  }
  conn.idle = Deadline::After(options_.idle_timeout_s);
  const ShardMetrics* sm = shards_[shard_id]->sm;
  if (sm != nullptr) {
    // Responses queued behind the socket after this wake's batch — a
    // last-writer snapshot across the shard's connections, enough to
    // see pipelining back-pressure build.
    sm->pending_frames->Set(static_cast<double>(conn.pending()));
  }
}

void Server::HandleHttp(Conn& conn) {
  // Answer only once the request head is fully buffered so the
  // response never races the peer's own send.
  std::string path;
  if (!net::HttpRequestPath(conn.rbuf, &path)) {
    if (conn.rbuf.size() > kMaxRequestBytes) {
      conn.Send(HttpResponse("431 Request Header Fields Too Large",
                             "text/plain", "request too large\n"));
      conn.want_close = true;
      conn.rbuf.clear();
    }
    return;
  }
  // One response per connection, HTTP/1.0 style: drop any pipelined
  // bytes and close after the flush.
  conn.rbuf.clear();
  RefreshCacheGauges();
  conn.Send(obs::ScrapeReply(path, options_.metrics));
  conn.want_close = true;
}

void Server::Enqueue(Conn& conn, FrameStatus status, std::uint64_t bin_id,
                     std::string json) {
  if (conn.mode == Conn::Mode::kBinary) {
    conn.Send(EncodeResponseFrame(status, bin_id, json));
    return;
  }
  json.push_back('\n');
  // Server-initiated errors on a scrape connection (idle timeout) still
  // have to be HTTP for the peer to parse them. kDetect (no protocol
  // spoken yet, e.g. an idle timeout before the first byte) answers in
  // JSON, like the old line-only server.
  conn.Send(conn.mode == Conn::Mode::kHttp
                ? HttpResponse("408 Request Timeout", "application/json", json)
                : std::move(json));
}

void Server::OnWake(Shard& shard, const net::EventLoop::Wake& wake) {
  // Timeout scan first, so the wake's loop time includes it.
  std::vector<Conn*> doomed;
  shard.loop.ForEach([&](net::EventLoop::Conn& base) {
    Conn& conn = static_cast<Conn&>(base);
    if (conn.HasPending()) {
      // Pending output and no send progress: the peer stopped reading
      // (its TCP window is full). Drop it rather than holding the
      // buffers and the admission slot.
      if (options_.send_timeout_s > 0 &&
          conn.stall_seconds() > options_.send_timeout_s) {
        doomed.push_back(&conn);
      }
      return;
    }
    if (!conn.want_close && conn.idle.ExpiredNow()) {
      Enqueue(conn, FrameStatus::kIdleTimeout, 0,
              RenderError("idle_timeout", "connection idle too long"));
      conn.want_close = true;
      if (!shard.loop.Flush(conn)) doomed.push_back(&conn);
    }
  });
  for (Conn* conn : doomed) shard.loop.Close(*conn);

  const ShardMetrics* sm = shard.sm;
  if (sm == nullptr) return;
  sm->wakeups->Increment();
  sm->connections->Set(static_cast<double>(shard.loop.connections()));
  sm->bytes_in->Add(wake.bytes_in);
  sm->bytes_out->Add(wake.bytes_out);
  sm->write_stalls->Add(wake.write_stalls);
  sm->loop_seconds->Observe(wake.watch.ElapsedSeconds());
}

// farmer-lint: end(event-loop)

void Server::ExecutePending(std::size_t shard_id, Conn& conn,
                            PendingRequest& p) {
  Stopwatch watch;
  shards_[shard_id]->requests.fetch_add(1, std::memory_order_relaxed);
  if (metrics_.requests != nullptr) metrics_.requests->Increment();

  if (!p.parse.ok()) {
    if (metrics_.responses_error != nullptr) {
      metrics_.responses_error->Increment();
    }
    Enqueue(conn, FrameStatus::kBadRequest, p.request.bin_id,
            RenderError("bad_request", p.parse.message(),
                        p.binary ? "" : p.request.id));
    return;
  }

  const bool slow_log = options_.slow_query_ms > 0;
  RequestScope scope;
  RequestScope* scope_ptr = nullptr;
  if (options_.trace != nullptr || slow_log) {
    scope.trace = options_.trace;
    scope.lane = shard_id + 1;
    scope.req_id = p.trace_id;
    scope_ptr = &scope;
    if (options_.trace != nullptr && p.parse_start_ns != 0) {
      // The parse phase happened in ProcessBuffered; emit its span here
      // with the recorded timing (same lane, same producer thread).
      obs::TraceEvent parse_event;
      parse_event.name = "serve.parse";
      parse_event.phase = 'X';
      parse_event.lane = static_cast<std::uint32_t>(shard_id + 1);
      parse_event.ts_ns = p.parse_start_ns;
      parse_event.dur_ns = static_cast<std::uint64_t>(p.parse_s * 1e9);
      parse_event.arg1_name = "req_id";
      parse_event.arg1 = static_cast<std::int64_t>(p.trace_id);
      options_.trace->Emit(parse_event);
    }
  }

  obs::ScopedSpan span(options_.trace, shard_id + 1, SpanName(p.request.op));
  span.Arg("req_id", static_cast<std::int64_t>(p.trace_id));
  QueryOutcome out =
      p.request.op == QueryRequest::Op::kReload
          ? RunReload(p.request)
          : RunQuery(p.request, p.deadline, scope_ptr);

  double elapsed_s = 0.0;
  if (metrics_.latency != nullptr || slow_log) {
    elapsed_s = watch.ElapsedSeconds();
  }
  if (metrics_.latency != nullptr) {
    metrics_.latency->Observe(elapsed_s);
    const auto opi = static_cast<std::size_t>(p.request.op);
    if (opi < kOpCount && metrics_.op_latency[opi] != nullptr) {
      metrics_.op_latency[opi]->Observe(elapsed_s);
    }
  }
  if (out.error) {
    if (metrics_.responses_error != nullptr) {
      metrics_.responses_error->Increment();
    }
  } else if (metrics_.responses_ok != nullptr) {
    metrics_.responses_ok->Increment();
  }
  span.Arg("cached", out.cached ? 1 : 0);

  if (slow_log && elapsed_s * 1000.0 >= options_.slow_query_ms) {
    slow_queries_.fetch_add(1, std::memory_order_relaxed);
    if (metrics_.slow_queries != nullptr) metrics_.slow_queries->Increment();
    Shard& shard = *shards_[shard_id];
    const std::size_t every =
        options_.slow_query_every == 0 ? 1 : options_.slow_query_every;
    if (shard.slow_seen++ % every == 0) {
      EmitSlowQuery(shard_id, p, scope, out, elapsed_s * 1000.0);
    }
  }
  Enqueue(conn, out.status, p.request.bin_id, std::move(out.json));
}

Server::QueryOutcome Server::RunQuery(const QueryRequest& request,
                                      const Deadline& deadline,
                                      RequestScope* scope) {
  // Phase timing, active only when `scope` is non-null: one elapsed
  // time into the scope (for the slow-query breakdown) and one span
  // per phase when a trace session is attached. The disabled path
  // takes zero clock reads.
  struct PhaseTimer {
    RequestScope* scope;
    const char* name;
    double RequestScope::*field;
    std::chrono::steady_clock::time_point start;
    std::uint64_t start_ns = 0;

    PhaseTimer(RequestScope* s, const char* n, double RequestScope::*f)
        : scope(s), name(n), field(f) {
      if (scope == nullptr) return;
      start = std::chrono::steady_clock::now();
      if (scope->trace != nullptr) start_ns = scope->trace->NowNs();
    }
    PhaseTimer(const PhaseTimer&) = delete;
    PhaseTimer& operator=(const PhaseTimer&) = delete;
    ~PhaseTimer() {
      if (scope == nullptr) return;
      scope->*field += std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
      if (scope->trace != nullptr) {
        scope->trace->EndSpan(scope->lane, name, start_ns, "req_id",
                              static_cast<std::int64_t>(scope->req_id));
      }
    }
  };

  QueryOutcome out;
  // One acquire per request: everything below sees a single coherent
  // (index, version) pair, no matter how many swaps land meanwhile.
  const std::shared_ptr<const VersionedIndex> vi = Current();
  const RuleGroupIndex& index = vi->index;
  out.version = vi->version;

  const bool cacheable = IsCacheable(request);
  std::string key;
  if (cacheable) {
    PhaseTimer cache_phase(scope, "serve.cache_lookup",
                           &RequestScope::cache_s);
    key = CanonicalKey(request);
    std::string payload;
    if (cache_.Get(vi->version, key, &payload)) {
      if (metrics_.cache_hits != nullptr) metrics_.cache_hits->Increment();
      out.cached = true;
      out.json = FinishResponse(payload, /*cached=*/true, request.id);
      return out;
    }
    if (metrics_.cache_misses != nullptr) metrics_.cache_misses->Increment();
  }

  if (deadline.ExpiredNow()) {
    if (metrics_.deadline_exceeded != nullptr) {
      metrics_.deadline_exceeded->Increment();
    }
    out.error = true;
    out.status = FrameStatus::kDeadlineExceeded;
    out.json = RenderError("deadline_exceeded",
                           "deadline expired before query", request.id);
    return out;
  }

  std::vector<std::uint32_t> ids;
  {
    PhaseTimer index_phase(scope, "serve.index", &RequestScope::index_s);
    switch (request.op) {
      case QueryRequest::Op::kPing:
        out.json =
            FinishResponse(RenderPingPayload(request), /*cached=*/false,
                           request.id);
        return out;
      case QueryRequest::Op::kStats: {
        const ServeLiveStats live = GatherLiveStats();
        out.json = FinishResponse(RenderStatsPayload(request, index,
                                                     vi->version, &live),
                                  /*cached=*/false, request.id);
        return out;
      }
      case QueryRequest::Op::kMetrics:
        if (options_.metrics == nullptr) {
          out.error = true;
          out.status = FrameStatus::kBadRequest;
          out.json = RenderError(
              "bad_request", "metrics unavailable: no registry attached",
              request.id);
          return out;
        }
        RefreshCacheGauges();
        out.json = FinishResponse(
            RenderMetricsPayload(
                obs::RenderPrometheus(options_.metrics->Snapshot())),
            /*cached=*/false, request.id);
        return out;
      case QueryRequest::Op::kReload:
        return RunReload(request);  // Dispatched earlier; kept total.
      case QueryRequest::Op::kTopkConfidence:
        ids = index.TopKByConfidence(request.k);
        break;
      case QueryRequest::Op::kTopkChiSquare:
        ids = index.TopKByChiSquare(request.k);
        break;
      case QueryRequest::Op::kContains:
        ids = index.AntecedentContains(request.items, request.limit);
        break;
      case QueryRequest::Op::kCover:
        ids = index.RowCover(request.items, request.limit);
        break;
      case QueryRequest::Op::kFilter:
        ids = index.Filter(request.min_support, request.min_confidence,
                           request.limit);
        break;
    }
    if (ids.size() > request.limit) ids.resize(request.limit);
  }

  if (deadline.ExpiredNow()) {
    if (metrics_.deadline_exceeded != nullptr) {
      metrics_.deadline_exceeded->Increment();
    }
    out.error = true;
    out.status = FrameStatus::kDeadlineExceeded;
    out.json = RenderError("deadline_exceeded",
                           "deadline expired during query", request.id);
    return out;
  }

  {
    PhaseTimer encode_phase(scope, "serve.encode", &RequestScope::encode_s);
    std::string payload = RenderGroupsPayload(request, index, ids);
    if (cacheable) cache_.Put(vi->version, key, payload);
    out.json = FinishResponse(payload, /*cached=*/false, request.id);
  }
  return out;
}

Server::QueryOutcome Server::RunReload(const QueryRequest& request) {
  QueryOutcome out;
  if (options_.snapshot_path.empty()) {
    out.error = true;
    out.status = FrameStatus::kBadRequest;
    out.json = RenderError("bad_request",
                           "reload unavailable: no snapshot path configured",
                           request.id);
    return out;
  }
  const Status swapped = ReloadFromFile(options_.snapshot_path);
  if (!swapped.ok()) {
    out.error = true;
    out.status = FrameStatus::kInternal;
    out.json = RenderError("internal", swapped.message(), request.id);
    return out;
  }
  const std::shared_ptr<const VersionedIndex> vi = Current();
  out.version = vi->version;
  out.json = FinishResponse(RenderReloadPayload(vi->version,
                                                vi->index.size()),
                            /*cached=*/false, request.id);
  return out;
}

void Server::RefreshCacheGauges() {
  // The cache gauges are pull-model: refreshed from the ResponseCache's
  // own counters at scrape time rather than updated on every hit.
  if (options_.metrics == nullptr) return;
  const std::uint64_t hits = cache_.hits();
  const std::uint64_t lookups = hits + cache_.misses();
  metrics_.cache_entries->Set(static_cast<double>(cache_.size()));
  metrics_.cache_bytes->Set(static_cast<double>(cache_.bytes()));
  metrics_.cache_evictions->Set(static_cast<double>(cache_.evictions()));
  metrics_.cache_hit_ratio->Set(
      lookups == 0 ? 0.0
                   : static_cast<double>(hits) / static_cast<double>(lookups));
}

ServeLiveStats Server::GatherLiveStats() const {
  ServeLiveStats live;
  live.active_connections =
      active_connections_.load(std::memory_order_relaxed);
  live.overloaded = overloaded_.load(std::memory_order_relaxed);
  live.slow_queries = slow_queries_.load(std::memory_order_relaxed);
  live.shard_connections.reserve(shards_.size());
  for (const auto& shard : shards_) {
    live.requests += shard->requests.load(std::memory_order_relaxed);
    live.shard_connections.push_back(shard->loop.connections());
  }
  live.cache_hits = cache_.hits();
  live.cache_misses = cache_.misses();
  live.cache_entries = cache_.size();
  live.cache_bytes = cache_.bytes();
  live.cache_evictions = cache_.evictions();
  return live;
}

void Server::EmitSlowQuery(std::size_t shard_id, const PendingRequest& p,
                           const RequestScope& scope, const QueryOutcome& out,
                           double total_ms) {
  std::string line = "{\"ts\":";
  line += std::to_string(static_cast<long long>(std::time(nullptr)));
  line += ",\"shard\":";
  line += std::to_string(shard_id);
  line += ",\"req_id\":";
  line += std::to_string(scope.req_id);
  line += ",\"op\":\"";
  line += OpName(p.request.op);
  line += "\",\"query\":\"";
  line += obs::JsonEscape(CanonicalKey(p.request));
  line += "\",\"latency_ms\":";
  line += obs::JsonNumber(total_ms);
  line += ",\"parse_ms\":";
  line += obs::JsonNumber(p.parse_s * 1e3);
  line += ",\"cache_ms\":";
  line += obs::JsonNumber(scope.cache_s * 1e3);
  line += ",\"index_ms\":";
  line += obs::JsonNumber(scope.index_s * 1e3);
  line += ",\"encode_ms\":";
  line += obs::JsonNumber(scope.encode_s * 1e3);
  line += ",\"snapshot_version\":";
  line += std::to_string(out.version);
  line += ",\"cached\":";
  line += out.cached ? "true" : "false";
  line += ",\"status\":\"";
  line += out.error ? FrameStatusCode(out.status) : "ok";
  line += "\"}";
  if (options_.slow_query_log) {
    options_.slow_query_log(line);
  } else {
    std::fprintf(stderr, "farmer_serve slow-query %s\n", line.c_str());
  }
}

}  // namespace serve
}  // namespace farmer
