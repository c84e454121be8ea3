// End-to-end farm tests: a real Coordinator and real Workers talking
// FMP1 over localhost, plus a raw scripted peer for the failure paths —
// death mid-lease, duplicate uploads, heartbeat-timeout revocation,
// hello rejection, and a coordinator granting a row outside the plan.
// The headline assertion everywhere:
// whatever goes wrong short of losing the coordinator, the merged farm
// result is bit-identical to a single-process MineFarmer() run.

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/farmer.h"
#include "core/miner_options.h"
#include "dataset/dataset.h"
#include "farm/coordinator.h"
#include "farm/protocol.h"
#include "farm/worker.h"
#include "obs/metrics.h"
#include "test_util.h"
#include "util/net.h"
#include "util/wire.h"

namespace farmer {
namespace farm {
namespace {

using testing_util::MakeDataset;
using testing_util::RandomDataset;

void ExpectIdenticalResults(const FarmerResult& want,
                            const FarmerResult& got) {
  ASSERT_EQ(want.groups.size(), got.groups.size());
  for (std::size_t i = 0; i < want.groups.size(); ++i) {
    SCOPED_TRACE("group " + std::to_string(i));
    const RuleGroup& a = want.groups[i];
    const RuleGroup& b = got.groups[i];
    EXPECT_EQ(a.antecedent, b.antecedent);
    EXPECT_EQ(a.rows, b.rows);
    EXPECT_EQ(a.support_pos, b.support_pos);
    EXPECT_EQ(a.support_neg, b.support_neg);
    EXPECT_EQ(a.confidence, b.confidence);
    EXPECT_EQ(a.chi_square, b.chi_square);
    EXPECT_EQ(a.lower_bounds, b.lower_bounds);
    EXPECT_EQ(a.lower_bounds_truncated, b.lower_bounds_truncated);
  }
  EXPECT_EQ(want.num_rows, got.num_rows);
  EXPECT_EQ(want.num_consequent_rows, got.num_consequent_rows);
}

// A blocking scripted FMP1 peer for driving either side into exact
// protocol states a well-behaved Coordinator or Worker never produces.
class RawClient {
 public:
  ~RawClient() { Close(); }

  bool Connect(int port) {
    return net::ConnectToHost("127.0.0.1", port, 5.0, &fd_).ok();
  }

  // Takes ownership of an accepted socket: the scripted coordinator's
  // end of a worker's connection.
  void Adopt(int fd) {
    Close();
    fd_ = fd;
  }

  // Consumes the preamble a connecting worker sends before its hello.
  bool ReadPreamble() {
    while (buf_.size() < kFarmPreambleSize) {
      if (!Fill()) return false;
    }
    if (buf_.compare(0, kFarmPreambleSize,
                     std::string_view(kFarmPreamble, kFarmPreambleSize)) !=
        0) {
      return false;
    }
    buf_.erase(0, kFarmPreambleSize);
    return true;
  }

  // True once the peer has closed its end (every pending byte is
  // discarded on the way).
  bool WaitForClose() {
    while (Fill()) buf_.clear();
    return true;
  }

  bool Send(std::string_view bytes) { return net::SendAll(fd_, bytes); }

  bool SendPreambleAndHello(const HelloMsg& hello) {
    std::string bytes(kFarmPreamble, kFarmPreambleSize);
    bytes += EncodeHello(hello);
    return Send(bytes);
  }

  // Reads one frame (blocking). Returns false on EOF / error.
  bool ReadFrame(std::uint8_t* opcode, std::string* payload) {
    while (true) {
      std::size_t consumed = 0;
      std::string_view view;
      std::string error;
      const wire::FrameExtract got =
          wire::ExtractFrame(buf_, kMaxFarmFramePayload, &consumed, opcode,
                             &view, &error);
      if (got == wire::FrameExtract::kComplete) {
        *payload = std::string(view);
        buf_.erase(0, consumed);
        return true;
      }
      if (got == wire::FrameExtract::kError) return false;
      if (!Fill()) return false;
    }
  }

  // Hello + ack convenience; returns the ack.
  HelloAckMsg Handshake(const HelloMsg& hello) {
    HelloAckMsg ack;
    if (!SendPreambleAndHello(hello)) return ack;
    std::uint8_t opcode = 0;
    std::string payload;
    if (!ReadFrame(&opcode, &payload)) return ack;
    EXPECT_EQ(static_cast<FarmOp>(opcode), FarmOp::kHelloAck);
    EXPECT_TRUE(DecodeHelloAck(payload, &ack).ok());
    return ack;
  }

  // Requests a lease; EXPECTs a grant and returns it.
  LeaseGrantMsg RequestLease() {
    LeaseGrantMsg grant;
    EXPECT_TRUE(Send(EncodeEmptyFrame(FarmOp::kLeaseRequest)));
    std::uint8_t opcode = 0;
    std::string payload;
    EXPECT_TRUE(ReadFrame(&opcode, &payload));
    EXPECT_EQ(static_cast<FarmOp>(opcode), FarmOp::kLeaseGrant);
    EXPECT_TRUE(DecodeLeaseGrant(payload, &grant).ok());
    return grant;
  }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
    buf_.clear();
  }

 private:
  // Appends one recv() worth of bytes to the buffer; false on EOF/error.
  bool Fill() {
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }

  int fd_ = -1;
  std::string buf_;
};

HelloMsg MakeHello(const BinaryDataset& dataset, const MinerOptions& opts) {
  HelloMsg hello;
  hello.fingerprint = serve::SnapshotFingerprint::FromDataset(dataset);
  hello.params = serve::SnapshotParams::FromMinerOptions(opts);
  hello.simd_level = "test";
  hello.worker_name = "raw";
  return hello;
}

// Runs `count` real workers to completion against the coordinator's
// port; EXPECTs every Run() to come back Ok.
void RunWorkers(const BinaryDataset& dataset, const MinerOptions& opts,
                int port, int count) {
  std::vector<std::thread> threads;
  std::vector<Status> statuses(static_cast<std::size_t>(count));
  std::vector<std::unique_ptr<Worker>> workers;
  for (int i = 0; i < count; ++i) {
    Worker::Options wopts;
    wopts.port = port;
    wopts.name = "w" + std::to_string(i);
    wopts.no_work_poll_s = 0.02;
    workers.push_back(std::make_unique<Worker>(dataset, opts, wopts));
  }
  for (int i = 0; i < count; ++i) {
    threads.emplace_back([&, i] { statuses[i] = workers[i]->Run(); });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < count; ++i) {
    EXPECT_TRUE(statuses[i].ok()) << "worker " << i << ": "
                                  << statuses[i].ToString();
  }
}

TEST(FarmE2ETest, TwoWorkersBitIdentical) {
  const BinaryDataset dataset = RandomDataset(20, 24, 0.3, 3);
  MinerOptions opts;
  opts.min_support = 2;
  opts.min_confidence = 0.6;
  const FarmerResult single = MineFarmer(dataset, opts);

  obs::MetricsRegistry metrics;
  Coordinator::Options copts;
  copts.metrics = &metrics;
  Coordinator coordinator(dataset, opts, copts);
  ASSERT_TRUE(coordinator.Start().ok());
  ASSERT_GT(coordinator.port(), 0);

  RunWorkers(dataset, opts, coordinator.port(), 2);
  ASSERT_TRUE(coordinator.WaitForCompletion(30.0));
  const FarmerResult farm = coordinator.Finalize();
  ExpectIdenticalResults(single, farm);
  EXPECT_EQ(single.stats.nodes_visited, farm.stats.nodes_visited);

  const Coordinator::Stats stats = coordinator.stats();
  EXPECT_EQ(stats.workers_seen, 2u);
  EXPECT_EQ(stats.results, coordinator.lease_total());
  EXPECT_EQ(stats.duplicate_results, 0u);
}

TEST(FarmE2ETest, WorkerKilledMidLeaseIsReleased) {
  const BinaryDataset dataset = RandomDataset(18, 22, 0.3, 7);
  MinerOptions opts;
  opts.min_support = 2;
  const FarmerResult single = MineFarmer(dataset, opts);

  Coordinator coordinator(dataset, opts, Coordinator::Options{});
  ASSERT_TRUE(coordinator.Start().ok());

  // A "worker" takes a lease and then dies without uploading. The
  // coordinator must revoke on disconnect and hand the row to the next
  // requester.
  RawClient raw;
  ASSERT_TRUE(raw.Connect(coordinator.port()));
  ASSERT_TRUE(raw.Handshake(MakeHello(dataset, opts)).accepted);
  const LeaseGrantMsg grant = raw.RequestLease();
  EXPECT_NE(grant.lease_id, 0u);
  raw.Close();  // Simulated SIGKILL.

  RunWorkers(dataset, opts, coordinator.port(), 1);
  ASSERT_TRUE(coordinator.WaitForCompletion(30.0));
  const FarmerResult farm = coordinator.Finalize();
  ExpectIdenticalResults(single, farm);

  const Coordinator::Stats stats = coordinator.stats();
  EXPECT_GE(stats.releases, 1u);
  EXPECT_EQ(stats.duplicate_results, 0u);
}

TEST(FarmE2ETest, DuplicateUploadIsDiscardedDeterministically) {
  const BinaryDataset dataset = RandomDataset(16, 20, 0.35, 9);
  MinerOptions opts;
  opts.min_support = 2;
  opts.report_all_rule_groups = true;  // Where duplicates would corrupt.
  const FarmerResult single = MineFarmer(dataset, opts);

  Coordinator coordinator(dataset, opts, Coordinator::Options{});
  ASSERT_TRUE(coordinator.Start().ok());

  // Mine one lease out-of-band so the raw client can upload it twice.
  internal::FarmerMiner miner(dataset, opts);
  miner.PlanFarm();

  RawClient raw;
  ASSERT_TRUE(raw.Connect(coordinator.port()));
  ASSERT_TRUE(raw.Handshake(MakeHello(dataset, opts)).accepted);
  const LeaseGrantMsg grant = raw.RequestLease();

  ResultMsg result;
  result.lease_id = grant.lease_id;
  result.root_row = grant.root_row;
  result.segments_wire = EncodeSegments(
      miner.MineFarmLease(grant.root_row, nullptr, nullptr));
  ASSERT_TRUE(raw.Send(EncodeResult(result)));
  std::uint8_t opcode = 0;
  std::string payload;
  ASSERT_TRUE(raw.ReadFrame(&opcode, &payload));
  ASSERT_EQ(static_cast<FarmOp>(opcode), FarmOp::kResultAck);
  ResultAckMsg ack;
  ASSERT_TRUE(DecodeResultAck(payload, &ack).ok());
  EXPECT_TRUE(ack.fresh);

  // Same upload again: acked, but flagged stale and never merged.
  ASSERT_TRUE(raw.Send(EncodeResult(result)));
  ASSERT_TRUE(raw.ReadFrame(&opcode, &payload));
  ASSERT_EQ(static_cast<FarmOp>(opcode), FarmOp::kResultAck);
  ASSERT_TRUE(DecodeResultAck(payload, &ack).ok());
  EXPECT_FALSE(ack.fresh);
  raw.Close();

  RunWorkers(dataset, opts, coordinator.port(), 1);
  ASSERT_TRUE(coordinator.WaitForCompletion(30.0));
  const FarmerResult farm = coordinator.Finalize();
  ExpectIdenticalResults(single, farm);
  EXPECT_EQ(coordinator.stats().duplicate_results, 1u);
}

TEST(FarmE2ETest, SilentWorkerHasLeaseRevokedAndReLeased) {
  const BinaryDataset dataset = RandomDataset(14, 20, 0.3, 13);
  MinerOptions opts;
  opts.min_support = 2;
  const FarmerResult single = MineFarmer(dataset, opts);

  Coordinator::Options copts;
  copts.heartbeat_timeout_s = 0.3;
  Coordinator coordinator(dataset, opts, copts);
  ASSERT_TRUE(coordinator.Start().ok());

  RawClient raw;
  ASSERT_TRUE(raw.Connect(coordinator.port()));
  ASSERT_TRUE(raw.Handshake(MakeHello(dataset, opts)).accepted);
  const LeaseGrantMsg grant = raw.RequestLease();

  // Go silent. Past the heartbeat timeout the coordinator must send
  // kRevoke for the held lease (the connection itself stays open).
  std::uint8_t opcode = 0;
  std::string payload;
  ASSERT_TRUE(raw.ReadFrame(&opcode, &payload));
  ASSERT_EQ(static_cast<FarmOp>(opcode), FarmOp::kRevoke);
  RevokeMsg revoke;
  ASSERT_TRUE(DecodeRevoke(payload, &revoke).ok());
  EXPECT_EQ(revoke.lease_id, grant.lease_id);
  EXPECT_GE(coordinator.stats().releases, 1u);

  // The revoked row must be grantable again — possibly to the same
  // connection, which is still welcome to take fresh leases.
  const LeaseGrantMsg again = raw.RequestLease();
  EXPECT_NE(again.lease_id, grant.lease_id);
  raw.Close();

  RunWorkers(dataset, opts, coordinator.port(), 1);
  ASSERT_TRUE(coordinator.WaitForCompletion(30.0));
  ExpectIdenticalResults(single, coordinator.Finalize());
}

TEST(FarmE2ETest, MismatchedWorkersAreRejected) {
  const BinaryDataset dataset = RandomDataset(14, 20, 0.3, 17);
  MinerOptions opts;
  opts.min_support = 2;

  Coordinator coordinator(dataset, opts, Coordinator::Options{});
  ASSERT_TRUE(coordinator.Start().ok());

  {
    // Wrong dataset fingerprint.
    RawClient raw;
    ASSERT_TRUE(raw.Connect(coordinator.port()));
    HelloMsg hello = MakeHello(dataset, opts);
    hello.fingerprint.dataset_hash ^= 1;
    const HelloAckMsg ack = raw.Handshake(hello);
    EXPECT_FALSE(ack.accepted);
    EXPECT_NE(ack.reason.find("fingerprint"), std::string::npos)
        << ack.reason;
  }
  {
    // Wrong mining parameters.
    RawClient raw;
    ASSERT_TRUE(raw.Connect(coordinator.port()));
    MinerOptions other = opts;
    other.min_support = opts.min_support + 1;
    const HelloAckMsg ack = raw.Handshake(MakeHello(dataset, other));
    EXPECT_FALSE(ack.accepted);
    EXPECT_NE(ack.reason.find("parameter"), std::string::npos)
        << ack.reason;
  }
  {
    // Wrong protocol version.
    RawClient raw;
    ASSERT_TRUE(raw.Connect(coordinator.port()));
    HelloMsg hello = MakeHello(dataset, opts);
    hello.version = kFarmProtocolVersion + 1;
    const HelloAckMsg ack = raw.Handshake(hello);
    EXPECT_FALSE(ack.accepted);
    EXPECT_NE(ack.reason.find("version"), std::string::npos) << ack.reason;
  }

  // A real Worker built with mismatched options reports the rejection
  // as InvalidArgument — not retryable, not a crash.
  MinerOptions other = opts;
  other.min_confidence = 0.9;
  Worker::Options wopts;
  wopts.port = coordinator.port();
  Worker worker(dataset, other, wopts);
  const Status status = worker.Run();
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_EQ(coordinator.stats().workers_rejected, 4u);

  // The farm still completes with a matching worker.
  RunWorkers(dataset, opts, coordinator.port(), 1);
  ASSERT_TRUE(coordinator.WaitForCompletion(30.0));
  ExpectIdenticalResults(MineFarmer(dataset, opts), coordinator.Finalize());
}

TEST(FarmE2ETest, RejectedHelloIsAnsweredEvenWithFramesBehindIt) {
  const BinaryDataset dataset = RandomDataset(14, 20, 0.3, 17);
  MinerOptions opts;
  opts.min_support = 2;
  Coordinator coordinator(dataset, opts, Coordinator::Options{});
  ASSERT_TRUE(coordinator.Start().ok());

  // A lease request pipelined behind a rejected hello: the peer still
  // gets the rejection and its reason, then the close.
  RawClient raw;
  ASSERT_TRUE(raw.Connect(coordinator.port()));
  HelloMsg hello = MakeHello(dataset, opts);
  hello.version = kFarmProtocolVersion + 1;
  std::string bytes(kFarmPreamble, kFarmPreambleSize);
  bytes += EncodeHello(hello);
  bytes += EncodeEmptyFrame(FarmOp::kLeaseRequest);
  ASSERT_TRUE(raw.Send(bytes));
  std::uint8_t opcode = 0;
  std::string payload;
  ASSERT_TRUE(raw.ReadFrame(&opcode, &payload));
  EXPECT_EQ(static_cast<FarmOp>(opcode), FarmOp::kHelloAck);
  HelloAckMsg ack;
  ASSERT_TRUE(DecodeHelloAck(payload, &ack).ok());
  EXPECT_FALSE(ack.accepted);
  EXPECT_NE(ack.reason.find("version"), std::string::npos) << ack.reason;
  EXPECT_FALSE(raw.ReadFrame(&opcode, &payload));  // Closed, no grant.
  EXPECT_EQ(coordinator.stats().leases_granted, 0u);
  coordinator.Stop();
}

TEST(FarmE2ETest, RootWithZeroLeasesCompletesAtStart) {
  // Identical rows: the root absorbs every row, so the plan has no
  // lease and the farm is complete before any worker connects.
  const BinaryDataset dataset = MakeDataset({{{0, 1, 2}, 1},
                                             {{0, 1, 2}, 1},
                                             {{0, 1, 2}, 0},
                                             {{0, 1, 2}, 1},
                                             {{0, 1, 2}, 0}});
  MinerOptions opts;
  opts.consequent = 1;
  opts.min_support = 1;

  Coordinator coordinator(dataset, opts, Coordinator::Options{});
  ASSERT_TRUE(coordinator.Start().ok());
  EXPECT_EQ(coordinator.lease_total(), 0u);
  EXPECT_TRUE(coordinator.complete());

  // A worker that connects now is told kDone on its first request.
  Worker::Options wopts;
  wopts.port = coordinator.port();
  Worker worker(dataset, opts, wopts);
  const Status status = worker.Run();
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(worker.leases_completed(), 0u);

  ASSERT_TRUE(coordinator.WaitForCompletion(30.0));
  const FarmerResult farm = coordinator.Finalize();
  EXPECT_EQ(farm.groups.size(), 1u);
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads = " + std::to_string(threads));
    MinerOptions single = opts;
    single.num_threads = threads;
    ExpectIdenticalResults(MineFarmer(dataset, single), farm);
  }
}

TEST(FarmE2ETest, GrantOutsideThePlanIsRejectedNotFatal) {
  // Row 0 holds every item, so the root absorbs it: it is a valid row
  // id but no lease root.
  const BinaryDataset dataset = MakeDataset({{{0, 1, 2, 3}, 1},
                                             {{0, 1}, 1},
                                             {{2, 3}, 0},
                                             {{1, 2}, 0},
                                             {{0, 3}, 1}});
  MinerOptions opts;
  opts.min_support = 1;
  internal::FarmerMiner planner(dataset, opts);
  const internal::FarmerMiner::FarmPlan& plan = planner.PlanFarm();
  ASSERT_FALSE(plan.root_pruned);
  const auto num_rows = static_cast<std::uint32_t>(dataset.num_rows());
  std::uint32_t off_plan = num_rows;
  for (std::uint32_t r = 0; r < num_rows; ++r) {
    if (!std::binary_search(plan.lease_rows.begin(), plan.lease_rows.end(),
                            r)) {
      off_plan = r;
      break;
    }
  }
  ASSERT_LT(off_plan, num_rows);

  int listen_fd = -1;
  int port = 0;
  ASSERT_TRUE(net::OpenListener("127.0.0.1", 0, &listen_fd, &port).ok());
  // One session per bad grant: past the row range, then inside it but
  // outside the plan. Either way the worker must refuse the grant and
  // return InvalidArgument instead of aborting or reconnecting.
  for (const std::uint32_t row : {num_rows, off_plan}) {
    SCOPED_TRACE("granted row " + std::to_string(row));
    std::thread scripted([&] {
      RawClient peer;
      peer.Adopt(::accept(listen_fd, nullptr, nullptr));
      std::uint8_t opcode = 0;
      std::string payload;
      EXPECT_TRUE(peer.ReadPreamble());
      EXPECT_TRUE(peer.ReadFrame(&opcode, &payload));
      EXPECT_EQ(static_cast<FarmOp>(opcode), FarmOp::kHello);
      HelloAckMsg ack;
      ack.accepted = true;
      ack.worker_id = 1;
      EXPECT_TRUE(peer.Send(EncodeHelloAck(ack)));
      EXPECT_TRUE(peer.ReadFrame(&opcode, &payload));
      EXPECT_EQ(static_cast<FarmOp>(opcode), FarmOp::kLeaseRequest);
      LeaseGrantMsg grant;
      grant.lease_id = 1;
      grant.root_row = row;
      EXPECT_TRUE(peer.Send(EncodeLeaseGrant(grant)));
      peer.WaitForClose();
    });
    Worker::Options wopts;
    wopts.port = port;
    Worker worker(dataset, opts, wopts);
    const Status status = worker.Run();
    scripted.join();
    EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
    EXPECT_EQ(worker.leases_completed(), 0u);
  }
  // No reconnect attempt is queued on the listener.
  ASSERT_TRUE(net::SetNonBlocking(listen_fd));
  EXPECT_LT(::accept(listen_fd, nullptr, nullptr), 0);
  ::close(listen_fd);
}

TEST(FarmE2ETest, MetricsScrapeOnTheFarmListener) {
  const BinaryDataset dataset = RandomDataset(12, 18, 0.3, 19);
  MinerOptions opts;
  opts.min_support = 2;

  obs::MetricsRegistry metrics;
  Coordinator::Options copts;
  copts.metrics = &metrics;
  Coordinator coordinator(dataset, opts, copts);
  ASSERT_TRUE(coordinator.Start().ok());

  int fd = -1;
  ASSERT_TRUE(net::ConnectToHost("127.0.0.1", coordinator.port(), 5.0, &fd)
                  .ok());
  ASSERT_TRUE(
      net::SendAll(fd, "GET /metrics HTTP/1.1\r\n\r\n"));
  std::string response;
  char chunk[4096];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(response.find("200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("farm"), std::string::npos) << response;

  coordinator.Stop();
}

// Sends `bytes` on a fresh connection to `port` and returns everything
// the coordinator writes back before it closes.
std::string ExchangeUntilClose(int port, std::string_view bytes) {
  int fd = -1;
  if (!net::ConnectToHost("127.0.0.1", port, 5.0, &fd).ok()) {
    return "<connect failed>";
  }
  std::string response;
  if (net::SendAll(fd, bytes)) {
    char chunk[4096];
    ssize_t n;
    while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
      response.append(chunk, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  return response;
}

TEST(FarmE2ETest, FarmListenerRoutesHttpAndDropsUnknownPreambles) {
  const BinaryDataset dataset = RandomDataset(12, 18, 0.3, 19);
  MinerOptions opts;
  opts.min_support = 2;

  obs::MetricsRegistry metrics;
  Coordinator::Options copts;
  copts.metrics = &metrics;
  Coordinator coordinator(dataset, opts, copts);
  ASSERT_TRUE(coordinator.Start().ok());
  const int port = coordinator.port();
  EXPECT_EQ(ExchangeUntilClose(port, "GET /other HTTP/1.0\r\n\r\n")
                .rfind("HTTP/1.0 404 Not Found\r\n", 0),
            0u);
  // The query string is not part of the path.
  const std::string scrape =
      ExchangeUntilClose(port, "GET /metrics?x=1 HTTP/1.0\r\n\r\n");
  EXPECT_EQ(scrape.rfind("HTTP/1.0 200 OK\r\n", 0), 0u) << scrape;
  EXPECT_NE(scrape.find("farm_leases_pending"), std::string::npos)
      << scrape;
  // Neither "FMP1" nor "GET ": closed without a byte in reply.
  EXPECT_EQ(ExchangeUntilClose(port, "XYZ1 junk"), "");
  coordinator.Stop();

  Coordinator bare(dataset, opts, Coordinator::Options{});
  ASSERT_TRUE(bare.Start().ok());
  EXPECT_EQ(ExchangeUntilClose(bare.port(), "GET /metrics HTTP/1.0\r\n\r\n")
                .rfind("HTTP/1.0 503 Service Unavailable\r\n", 0),
            0u);
  bare.Stop();
}

}  // namespace
}  // namespace farm
}  // namespace farmer
