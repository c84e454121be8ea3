// The repository benchmark: mine, farm and serve driven from outside
// through the libraries' public functions, on one of two workloads.
//
//   perfbench --workload bc-irgs|pc-topk --work-dir DIR
//             [--seed N] [--seconds S] [--trace 0|1]
//             [--out FILE] [--trace-out FILE]
//   perfbench --selftest
//
// Every workload runs the same pipeline on its own input, a synthetic
// matrix handed over only as a CSV file (the spec's one draw with its
// gene columns shuffled by the seed, see ShuffleGenes):
//
//   set-up   CSV load + discretize, snapshot decode + index build +
//            Server::Start, each repeated kSetupReps times (median);
//   mining   rounds of MineFarmer at nproc threads, MineFarmer at one
//            thread and an in-process farm (Coordinator + nproc-1
//            Workers over loopback FMP1), each followed by
//            SerializeSnapshot; all encodings must be identical;
//   serving  the snapshot behind an in-process Server (2 shards), driven
//            open-loop over 4 FQP1 connections from this thread: a
//            window at the fixed rate kHiRate with reloads, one at
//            kLoRate without, and a bisection for the highest rate that
//            holds the p99 limit.
//
// Mining and serving alternate in kCycles cycles. The workloads differ
// in input. An untraced run gives most of --seconds to mining, whose
// end-to-end numbers need many rounds; the traced run splits it evenly,
// records its own spans (written as a Chrome trace) and probes each
// layer on its own; those per-layer numbers carry no bound and are not
// comparable with the untraced run's end-to-end numbers.
//
// Results go to --out as JSON (metric -> value, unit, sample count) and
// to stdout as one line per metric. Exit status 1 when any correctness
// check failed, 2 on a usage or environment error.

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <time.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/farmer.h"
#include "core/minelb.h"
#include "dataset/discretize.h"
#include "dataset/io.h"
#include "dataset/synthetic.h"
#include "dataset/transpose.h"
#include "farm/coordinator.h"
#include "farm/worker.h"
#include "layers.h"
#include "loadgen.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "report.h"
#include "serve/index.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "util/rng.h"
#include "util/simd/simd.h"

namespace farmer {
namespace perfbench {
namespace {

struct Workload {
  const char* name;
  const char* dataset;  // PaperDatasetSpec name.
  double column_scale;
  std::size_t min_support;
  std::size_t top_k;  // 0 = all interesting rule groups.
};

// Names are fixed: later changes cite them. BENCHMARK.json records why
// each one exists.
constexpr Workload kWorkloads[] = {
    {"bc-irgs", "BC", 0.05, 5, 0},
    {"pc-topk", "PC", 0.1, 5, 100},
};

// Share of --seconds spent in mining rounds; serving gets the rest. One
// mining round of one input varies by up to 1.5x on a shared VM (the
// same code runs in a fast and a slow host mode that switch every few
// seconds), so the untraced run needs many rounds for steady medians:
// 0.8 of 55 s is about 7 BC and 12 PC rounds. The serving numbers it
// gates are CPU per read, which is steady from a few seconds of load.
// The traced run reports the latencies, which need longer windows.
constexpr double kMineShare = 0.8;
constexpr double kTracedMineShare = 0.5;

// Serve load, fixed once from bc-irgs' default-seed snapshot, whose mix
// saturates 2 shards of a 4-core host at about 15,000 reads/s: kHiRate
// is about a quarter of that, kLoRate about 1/16. The p99 limit is what
// a classifier lookup may cost. It sits well above the 1-8 ms wake-up
// stalls of a shared VM, so qps_max finds the queueing knee, not a
// host stall (a 5 ms limit sent some runs' bisection down to 1,600/s).
constexpr double kLoRate = 1000.0;
constexpr double kHiRate = 4000.0;
constexpr double kP99LimitUs = 20000.0;
constexpr std::size_t kServeShards = 2;
constexpr std::size_t kServeConnections = 4;
// qps_max bisects [kLoRate, kBisectCeiling] geometrically until the
// bracket is within 5%: seven probes from a 64x bracket.
constexpr double kBisectCeiling = 64.0 * kLoRate;
constexpr int kBisectProbes = 7;
// Percentiles of the fixed-rate windows are taken per slice (medians
// over the slices, see IntervalP99): half a second holds 2,000 reads at
// kHiRate and exactly one reload; a second holds 1,000 at kLoRate.
constexpr double kHiSlice = 0.5;
constexpr double kLoSlice = 1.0;

constexpr int kCycles = 4;
constexpr int kBuckets = 10;
constexpr std::size_t kSetupReps = 9;
constexpr std::size_t kMinMineRounds = 2;
constexpr std::size_t kMaxMineRounds = 40;
constexpr std::size_t kLowerBoundSample = 256;
constexpr std::size_t kReplySampleEvery = 16;
constexpr std::size_t kServeProbeRequests = 4000;
constexpr std::size_t kTraceEventsPerLane = std::size_t{1} << 17;

struct Args {
  std::string workload;
  bool has_seed = false;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  std::string out;
  std::string trace_out;
  bool selftest = false;
};

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/// CPU time of the calling thread.
double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

// ---- Host speed. ----------------------------------------------------
// On a shared VM the same mining round takes 1x to 1.5x its fastest
// time, and the host's speed drifts over minutes: the per-run medians
// of one-thread BC mining over ten 55 s runs spread by 24% (IQR over
// median), and by 35% between two sweeps a quarter hour apart. So each
// timed operation is bracketed by passes of a fixed reference loop, and
// its time is reported at reference speed: scaled by kRefNominalS over
// the geometric mean of the two passes. The loop is the benchmark's own
// code, so no change to the program moves it; the raw times are
// reported too (raw.*). Mining and set-up are bracketed by a pass on
// the calling thread. Serving, whose CPU time is spent on the server's
// shard threads, by a pass on every core at once: over ten pc-topk
// runs that left serve_cpu_us spread by 4%, against 10% with a pass on
// the calling thread and 16% unscaled.

/// About the reference loop's time on one thread of the 4-core VM where
/// the benchmark was written (18-21 ms); it fixes the unit of the
/// scaled times.
constexpr double kRefNominalS = 0.018;

/// Seconds one pass of the reference loop takes now on the calling
/// thread: 2M steps of a xorshift generator, each an AND of two words of
/// a 256 KiB table and either a popcount or a store, picked by the
/// generator.
double ReferencePassSeconds() {
  constexpr std::size_t kWords = std::size_t{1} << 15;
  thread_local std::vector<std::uint64_t> table = [] {
    std::vector<std::uint64_t> t(kWords);
    Rng rng(0x5EEDu);
    for (std::uint64_t& w : t) w = rng.NextU64();
    return t;
  }();
  const Clock::time_point start = Clock::now();
  std::uint64_t acc = 0;
  std::uint64_t x = 88172645463325252ull;
  for (std::size_t pass = 0; pass < 60; ++pass) {
    for (std::size_t i = 0; i < kWords; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      const std::uint64_t v = table[i] & table[(i * 7 + pass) & (kWords - 1)];
      if ((x & 1) != 0) {
        acc += static_cast<std::uint64_t>(__builtin_popcountll(v));
      } else {
        table[i] ^= x;
      }
    }
  }
  asm volatile("" : : "r"(acc));
  return SecondsSince(start);
}

/// Mean seconds of one reference pass run on `threads` threads at once.
double ReferenceSeconds(std::size_t threads) {
  if (threads <= 1) return ReferencePassSeconds();
  std::vector<double> seconds(threads);
  std::vector<std::thread> pool;
  for (std::size_t i = 0; i < threads; ++i) {
    pool.emplace_back([&seconds, i] { seconds[i] = ReferencePassSeconds(); });
  }
  for (std::thread& t : pool) t.join();
  return std::accumulate(seconds.begin(), seconds.end(), 0.0) /
         static_cast<double>(threads);
}

/// Brackets one timed operation with reference passes on `threads`
/// threads. Every pass's time is kept in *passes.
class RefTimer {
 public:
  RefTimer(std::size_t threads, std::vector<double>* passes)
      : threads_(threads),
        passes_(passes),
        before_(ReferenceSeconds(threads)),
        start_(Clock::now()) {
    passes_->push_back(before_);
  }

  /// Wall seconds since construction.
  double Raw() const { return SecondsSince(start_); }

  /// `seconds` of the operation, which has just ended, at reference
  /// speed. Call once.
  double Scale(double seconds) {
    const double after = ReferenceSeconds(threads_);
    passes_->push_back(after);
    return seconds * kRefNominalS / std::sqrt(before_ * after);
  }

 private:
  std::size_t threads_;
  std::vector<double>* passes_;
  double before_;
  Clock::time_point start_;
};

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux.
}

bool MakeDirs(const std::string& path) {
  std::string partial;
  std::stringstream ss(path);
  std::string part;
  if (!path.empty() && path[0] == '/') partial = "/";
  while (std::getline(ss, part, '/')) {
    if (part.empty()) continue;
    partial += part + "/";
    if (::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) return false;
  }
  return true;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

bool WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string UtcDate() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

/// `matrix` with its gene columns (names included) in a seeded order.
///
/// The seed shuffles the spec's one draw instead of drawing a new
/// matrix: every seed then poses the same mining problem under other
/// item ids. New draws differ too much in cost to compare runs — eight
/// PC draws took 0.85 to 3.3 s to mine top-k at 4 threads.
ExpressionMatrix ShuffleGenes(const ExpressionMatrix& matrix,
                              std::uint64_t seed) {
  std::vector<std::size_t> order(matrix.num_genes());
  std::iota(order.begin(), order.end(), 0);
  Rng rng(seed);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBelow(i)]);
  }
  ExpressionMatrix out(matrix.num_rows(), matrix.num_genes());
  std::vector<std::string> names(matrix.num_genes());
  for (std::size_t g = 0; g < order.size(); ++g) {
    names[g] = matrix.GeneName(order[g]);
    for (std::size_t r = 0; r < matrix.num_rows(); ++r) {
      out.at(r, g) = matrix.at(r, order[g]);
    }
  }
  for (std::size_t r = 0; r < matrix.num_rows(); ++r) {
    out.set_label(r, matrix.label(r));
  }
  out.set_gene_names(std::move(names));
  out.set_class_names(matrix.class_names());
  return out;
}

std::string Encode(const FarmerResult& result, const BinaryDataset& dataset,
                   const MinerOptions& options) {
  serve::RuleGroupSnapshot snapshot;
  snapshot.groups = result.groups;
  snapshot.num_rows = dataset.num_rows();
  snapshot.params = serve::SnapshotParams::FromMinerOptions(options);
  snapshot.fingerprint = serve::SnapshotFingerprint::FromDataset(dataset);
  return serve::SerializeSnapshot(snapshot);
}

/// Copies every event of `from` into `to`, shifted onto `to`'s clock.
void CopyEvents(const obs::TraceSession& from, std::uint64_t offset_ns,
                obs::TraceSession* to) {
  for (std::size_t lane = 0; lane < from.num_lanes(); ++lane) {
    for (obs::TraceEvent e : from.ring(lane).Snapshot()) {
      e.ts_ns += offset_ns;
      to->Emit(e);
    }
  }
}

/// Sum of the durations of the complete events named `name`.
double SpanSeconds(const obs::TraceSession& session, const char* name) {
  double ns = 0.0;
  for (std::size_t lane = 0; lane < session.num_lanes(); ++lane) {
    for (const obs::TraceEvent& e : session.ring(lane).Snapshot()) {
      if (e.phase == 'X' && std::strcmp(e.name, name) == 0) {
        ns += static_cast<double>(e.dur_ns);
      }
    }
  }
  return ns / 1e9;
}

double HistogramSum(const obs::MetricsSnapshot& snap, const std::string& prefix) {
  double sum = 0.0;
  for (const auto& h : snap.histograms) {
    if (h.name.rfind(prefix, 0) == 0) sum += h.sum;
  }
  return sum;
}

std::uint64_t CounterValue(const obs::MetricsSnapshot& snap,
                           const std::string& name) {
  for (const auto& c : snap.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

/// Timings of one in-process farm run.
struct FarmRun {
  double total_s = 0.0;
  double plan_s = 0.0;
  double lease_wait_s = 0.0;
  double finalize_s = 0.0;
  farm::Coordinator::Stats stats;
  std::string bytes;
  bool ok = false;
};

FarmRun RunFarm(const BinaryDataset& dataset, const MinerOptions& options,
                std::size_t workers, obs::TraceSession* trace) {
  FarmRun run;
  const Clock::time_point start = Clock::now();
  const std::uint64_t plan_ns = trace != nullptr ? trace->NowNs() : 0;
  farm::Coordinator coordinator(dataset, options, farm::Coordinator::Options{});
  if (!coordinator.Start().ok()) return run;
  if (trace != nullptr) trace->EndSpan(0, "farm.plan", plan_ns);
  run.plan_s = SecondsSince(start);
  const Clock::time_point wait_start = Clock::now();
  bool workers_ok = true;
  bool completed = false;
  {
    obs::ScopedSpan span(trace, 0, "farm.lease_wait");
    // The farmer_farm worker defaults; only the port and name differ.
    std::vector<std::unique_ptr<farm::Worker>> fleet;
    for (std::size_t w = 0; w < workers; ++w) {
      farm::Worker::Options wopts;
      wopts.port = coordinator.port();
      wopts.name = "perfbench-w" + std::to_string(w);
      fleet.push_back(std::make_unique<farm::Worker>(dataset, options, wopts));
    }
    std::vector<Status> results(workers, Status::Ok());
    std::vector<std::thread> threads;
    for (std::size_t w = 0; w < workers; ++w) {
      threads.emplace_back([&fleet, &results, w] { results[w] = fleet[w]->Run(); });
    }
    for (std::thread& t : threads) t.join();
    for (const Status& s : results) workers_ok = workers_ok && s.ok();
    completed = coordinator.WaitForCompletion(60.0);
  }
  run.lease_wait_s = SecondsSince(wait_start);
  if (!workers_ok || !completed) return run;
  const Clock::time_point fin_start = Clock::now();
  FarmerResult result;
  {
    obs::ScopedSpan span(trace, 0, "farm.finalize");
    result = coordinator.Finalize();
  }
  run.finalize_s = SecondsSince(fin_start);
  {
    obs::ScopedSpan span(trace, 0, "snapshot.encode");
    run.bytes = Encode(result, dataset, options);
  }
  run.total_s = SecondsSince(start);
  run.stats = coordinator.stats();
  run.ok = !result.stats.timed_out;
  return run;
}

/// True when the server's `reply` equals the answer computed here with
/// the same index query and renderer (either cache flag).
bool ReplyMatches(const SampledReply& reply, const BinaryDataset& dataset,
                  const serve::RuleGroupIndex& index) {
  const serve::QueryRequest request = ToRequest(reply.spec, dataset);
  const std::string payload =
      serve::RenderGroupsPayload(request, index, QueryIndex(request, index));
  return reply.json == serve::FinishResponse(payload, false) ||
         reply.json == serve::FinishResponse(payload, true);
}

int RunWorkload(const Workload& w, const Args& args) {
  Report report;
  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const SyntheticSpec spec = PaperDatasetSpec(w.dataset, w.column_scale);
  const std::uint64_t seed = args.has_seed ? args.seed : spec.seed;

  const std::string simd = simd::LevelName(simd::ActiveLevel());
  std::printf("perfbench %s seed %llu: %.0f s, trace %d\n", w.name,
              static_cast<unsigned long long>(seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("host: nproc %zu, simd %s, build %s, compiler %s, date %s\n",
              nproc, simd.c_str(), PERFBENCH_BUILD_TYPE, Compiler().c_str(),
              UtcDate().c_str());
  std::fflush(stdout);

  // Lane 0 carries the benchmark's spans and the miner's control lane;
  // lanes 1..nproc the miner's pool workers.
  std::unique_ptr<obs::TraceSession> session;
  if (args.trace) {
    session = std::make_unique<obs::TraceSession>(nproc + 1, kTraceEventsPerLane);
  }
  obs::TraceSession* trace = session.get();
  const std::uint64_t run_start_ns = trace != nullptr ? trace->NowNs() : 0;

  // ---- Input: the only thing the program sees is this CSV. ----------
  const std::string dir = args.work_dir + "/" + w.name + "-" + std::to_string(seed);
  if (!MakeDirs(dir)) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", dir.c_str());
    return 2;
  }
  const std::string csv_path = dir + "/matrix.csv";
  const std::string snapshot_path = dir + "/rules.fsnap";
  if (!SaveExpressionCsv(ShuffleGenes(GenerateSynthetic(spec), seed), csv_path)
           .ok()) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", csv_path.c_str());
    return 2;
  }

  // Every reference pass's time (see RefTimer), on one thread and on
  // every core at once.
  std::vector<double> ref_passes, all_ref_passes;

  // ---- Set-up, dataset half. ----------------------------------------
  std::vector<double> load_s, discretize_s, dataset_setup_s, raw_dataset_setup_s;
  BinaryDataset dataset;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    ExpressionMatrix matrix;
    RefTimer timer(1, &ref_passes);
    Clock::time_point t = Clock::now();
    {
      obs::ScopedSpan span(trace, 0, "dataset.load");
      if (!LoadExpressionCsv(csv_path, &matrix).ok()) {
        std::fprintf(stderr, "perfbench: cannot load %s\n", csv_path.c_str());
        return 2;
      }
    }
    load_s.push_back(SecondsSince(t));
    t = Clock::now();
    {
      obs::ScopedSpan span(trace, 0, "dataset.discretize");
      dataset = Discretization::FitEqualDepth(matrix, kBuckets).Apply(matrix);
    }
    discretize_s.push_back(SecondsSince(t));
    raw_dataset_setup_s.push_back(load_s.back() + discretize_s.back());
    dataset_setup_s.push_back(timer.Scale(raw_dataset_setup_s.back()));
  }
  std::printf("input: %s x%.3g seed %llu: %zu rows x %zu items\n", w.dataset,
              w.column_scale, static_cast<unsigned long long>(seed),
              dataset.num_rows(), dataset.num_items());

  MinerOptions options;
  options.consequent = 1;
  options.min_support = w.min_support;
  options.top_k = w.top_k;
  options.mine_lower_bounds = true;
  MinerOptions options_nt = options;
  options_nt.num_threads = nproc;

  // ---- Measurement. ------------------------------------------------
  // The run is kCycles cycles of [mining rounds, a slice of every serving
  // window, a share of the qps_max probes], so each metric's samples
  // span the whole run rather than one stretch of a host whose speed
  // drifts by tens of percent over tens of seconds.
  const double mine_share = args.trace ? kTracedMineShare : kMineShare;
  const double mine_budget = mine_share * args.seconds;
  const double serve_budget = (1.0 - mine_share) * args.seconds;
  std::vector<double> mine_s, mine_1t_s, farm_s, encode_s, cpu_util;
  std::vector<double> raw_mine_s, raw_mine_1t_s, raw_farm_s;
  std::vector<double> search_s, search_1t_s, minelb_s;
  std::vector<double> traced_mine_s, merge_s, remap_s;
  std::vector<double> plan_s, lease_wait_s, finalize_s;
  MinerStats nt_stats;
  std::size_t groups = 0;
  farm::Coordinator::Stats farm_stats;
  std::string reference;
  std::size_t rounds = 0;
  double mine_elapsed = 0.0;
  auto check_bytes = [&](const std::string& bytes, const char* what) {
    report.Attempt();
    if (reference.empty()) reference = bytes;
    if (bytes != reference) {
      report.Fail(std::string(what) + " snapshot differs from the " +
                  std::to_string(nproc) + "-thread encoding of round 1");
    }
  };
  auto mine_round = [&]() {
    const Clock::time_point round_start = Clock::now();
    {  // nproc threads, untraced: the end-to-end number.
      RefTimer timer(1, &ref_passes);
      const double cpu0 = CpuSeconds();
      const FarmerResult result = MineFarmer(dataset, options_nt);
      const Clock::time_point e = Clock::now();
      const std::string bytes = Encode(result, dataset, options);
      const double secs = timer.Raw();
      encode_s.push_back(SecondsSince(e));
      cpu_util.push_back((CpuSeconds() - cpu0) /
                         (secs * static_cast<double>(nproc)));
      raw_mine_s.push_back(secs);
      mine_s.push_back(timer.Scale(secs));
      search_s.push_back(result.stats.mine_seconds);
      minelb_s.push_back(result.stats.lower_bound_seconds);
      nt_stats = result.stats;
      groups = result.groups.size();
      if (result.stats.timed_out) report.Fail("mine timed out");
      check_bytes(bytes, "nproc-thread");
    }
    if (trace != nullptr) {  // The same run with the miner's own spans.
      obs::TraceSession miner_trace(nproc + 1, kTraceEventsPerLane);
      const std::uint64_t offset = trace->NowNs() - miner_trace.NowNs();
      MinerOptions traced = options_nt;
      traced.trace = &miner_trace;
      const Clock::time_point t = Clock::now();
      std::string bytes;
      {
        obs::ScopedSpan span(trace, 0, "core.mine");
        const FarmerResult result = MineFarmer(dataset, traced);
        obs::ScopedSpan encode_span(trace, 0, "snapshot.encode");
        bytes = Encode(result, dataset, options);
      }
      traced_mine_s.push_back(SecondsSince(t));
      merge_s.push_back(SpanSeconds(miner_trace, "merge"));
      remap_s.push_back(SpanSeconds(miner_trace, "remap"));
      if (miner_trace.total_dropped() > 0) {
        std::fprintf(stderr, "perfbench: miner trace dropped %llu events\n",
                     static_cast<unsigned long long>(miner_trace.total_dropped()));
      }
      if (rounds == 0) CopyEvents(miner_trace, offset, trace);
      check_bytes(bytes, "traced nproc-thread");
    }
    {  // One thread.
      RefTimer timer(1, &ref_passes);
      std::string bytes;
      {
        obs::ScopedSpan span(trace, 0, "core.mine_1t");
        const FarmerResult result = MineFarmer(dataset, options);
        search_1t_s.push_back(result.stats.mine_seconds);
        obs::ScopedSpan encode_span(trace, 0, "snapshot.encode");
        bytes = Encode(result, dataset, options);
      }
      raw_mine_1t_s.push_back(timer.Raw());
      mine_1t_s.push_back(timer.Scale(raw_mine_1t_s.back()));
      check_bytes(bytes, "1-thread");
    }
    {  // The farm: nproc-1 workers, the coordinator's loop on the last core.
      RefTimer timer(1, &ref_passes);
      const FarmRun run = RunFarm(dataset, options, nproc > 1 ? nproc - 1 : 1, trace);
      const double scaled = timer.Scale(run.total_s);
      if (!run.ok) {
        report.Attempt();
        report.Fail("farm run did not complete");
      } else {
        raw_farm_s.push_back(run.total_s);
        farm_s.push_back(scaled);
        plan_s.push_back(run.plan_s);
        lease_wait_s.push_back(run.lease_wait_s);
        finalize_s.push_back(run.finalize_s);
        farm_stats = run.stats;
        check_bytes(run.bytes, "farm");
      }
    }
    ++rounds;
    mine_elapsed += SecondsSince(round_start);
  };

  std::fprintf(stderr, "perfbench: mining\n");
  mine_round();  // The snapshot the server needs.
  // Memory is taken here, after set-up and one mining round: what one
  // run of each miner needs. The process's peak grows with every later
  // round as the allocator's per-thread arenas fragment (45 MB here on
  // pc-topk, 90-130 MB after a whole run), which measures the
  // benchmark's repetitions, not the program.
  const double peak_rss_mb = PeakRssMb();

  // ---- The mined output: decode it and check the lower bounds. ------
  serve::RuleGroupSnapshot mined;
  if (!serve::LoadSnapshotFromBuffer(reference, "mined", &mined).ok()) {
    report.Attempt();
    report.Fail("the mined snapshot does not decode");
    return 1;
  }
  {
    std::vector<std::size_t> order(mined.groups.size());
    std::iota(order.begin(), order.end(), 0);
    Rng pick(seed ^ 0x1B0DCAFEull);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[pick.NextBelow(i)]);
    }
    order.resize(std::min(order.size(), kLowerBoundSample));
    for (std::size_t idx : order) {
      const RuleGroup& g = mined.groups[idx];
      if (g.lower_bounds_truncated) continue;
      report.Attempt();
      const Status s =
          ValidateLowerBounds(dataset, g.antecedent, g.rows, g.lower_bounds);
      if (!s.ok()) {
        report.Fail("lower bounds of group " + std::to_string(idx) + ": " +
                    s.message());
      }
    }
  }
  if (!WriteFile(snapshot_path, reference)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", snapshot_path.c_str());
    return 2;
  }

  // ---- Set-up, serving half. ----------------------------------------
  std::fprintf(stderr, "perfbench: serving\n");
  obs::MetricsRegistry registry;
  serve::Server::Options sopts;
  sopts.num_shards = kServeShards;
  sopts.snapshot_path = snapshot_path;
  sopts.idle_timeout_s = 0.0;
  sopts.metrics = &registry;
  std::vector<double> decode_s, index_build_s, serve_setup_s, raw_serve_setup_s;
  std::unique_ptr<serve::Server> server;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    if (server != nullptr) server->Shutdown();
    server.reset();
    RefTimer timer(1, &ref_passes);
    const Clock::time_point t = Clock::now();
    {
      obs::ScopedSpan setup_span(trace, 0, "serve.setup");
      serve::RuleGroupSnapshot snapshot;
      {
        obs::ScopedSpan span(trace, 0, "snapshot.decode");
        std::string bytes;
        if (!ReadFile(snapshot_path, &bytes) ||
            !serve::LoadSnapshotFromBuffer(bytes, snapshot_path, &snapshot).ok()) {
          std::fprintf(stderr, "perfbench: cannot load %s\n", snapshot_path.c_str());
          return 2;
        }
      }
      decode_s.push_back(SecondsSince(t));
      const Clock::time_point ti = Clock::now();
      std::unique_ptr<serve::RuleGroupIndex> index;
      {
        obs::ScopedSpan span(trace, 0, "serve.index_build");
        index = std::make_unique<serve::RuleGroupIndex>(std::move(snapshot),
                                                        kServeShards);
      }
      index_build_s.push_back(SecondsSince(ti));
      {
        obs::ScopedSpan span(trace, 0, "serve.start");
        server = std::make_unique<serve::Server>(std::move(*index), sopts);
        if (!server->Start().ok()) {
          std::fprintf(stderr, "perfbench: the server did not start\n");
          return 2;
        }
      }
    }
    raw_serve_setup_s.push_back(SecondsSince(t));
    serve_setup_s.push_back(timer.Scale(raw_serve_setup_s.back()));
  }

  const serve::RuleGroupIndex local_index(mined, 1);
  QueryMix mix(dataset, local_index.snapshot(), w.min_support, seed);
  Rng traffic(seed * 0x9E3779B97F4A7C15ull + 17);
  LoadClient client(dataset);
  if (!client.Connect(server->port(), kServeConnections).ok()) {
    std::fprintf(stderr, "perfbench: cannot connect to the server\n");
    return 2;
  }
  // The generator sleeps until each request is due; the default 50 us
  // timer slack would add up to that much to every measured latency.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  std::vector<SampledReply> samples;
  auto account = [&report](const WindowStats& s, const char* window) {
    report.Attempt(s.attempted);
    for (std::size_t i = 0; i < s.failed; ++i) {
      report.Fail(std::string(window) + ": " +
                  (i < s.failures.size() ? s.failures[i] : "failed request"));
    }
  };
  // Warm-up: connections established, response cache filled.
  account(client.Run(mix, traffic, kLoRate, 0.3, false, 0, nullptr), "warm-up");

  // Per cycle, whole slices: 35% of the serving share at kHiRate, 30% at
  // kLoRate, 35% for the qps_max probes.
  const double hi_chunk =
      std::max(1.0, std::floor(0.35 * serve_budget / kCycles / kHiSlice)) * kHiSlice;
  const double lo_chunk =
      std::max(1.0, std::floor(0.3 * serve_budget / kCycles / kLoSlice)) * kLoSlice;
  // Budgeted for 7 probes plus the ~3 repeats a bisection takes.
  const double probe_s = 0.35 * serve_budget / (kBisectProbes + 3);
  WindowStats hi, lo;
  // Server CPU over the fixed-rate windows: the process's CPU time less
  // this (the generator's) thread's. Nothing else runs while serving.
  double server_cpu_s = 0.0, raw_server_cpu_s = 0.0;
  auto server_cpu = [] { return CpuSeconds() - ThreadCpuSeconds(); };
  double cache_hits = 0.0, cache_lookups = 0.0, shard_loop_s = 0.0;
  // qps_max: the bracket [pass, fail] narrows geometrically; a probe
  // passes when nothing failed, p99 held the limit and the generator
  // kept to its schedule. A failed probe is repeated once, so one host
  // stall cannot send the bracket down for good. Overload is the point
  // here, so probe failures are not counted as failed operations.
  // The bracket's top is offset per seed within one 5% step, so runs
  // do not all land on the same few grid rates.
  double pass_rate = kLoRate;
  double fail_rate = kBisectCeiling * (1.0 + 0.05 * Rng(seed).NextDouble());
  int probes_done = 0;
  auto probe = [&](double rate) {
    const WindowStats p = client.Run(mix, traffic, rate, probe_s, false, 0, nullptr);
    return p.failed == 0 && Percentile(p.latency_us, 99) <= kP99LimitUs &&
           Percentile(p.lag_ms, 99) * 1e3 <= kP99LimitUs;
  };
  double serve_elapsed = 0.0;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    const double mine_target = mine_budget * (cycle + 1) / kCycles;
    while (rounds < kMaxMineRounds &&
           (mine_elapsed + mine_elapsed / rounds <= mine_target ||
            (cycle + 1 == kCycles && rounds < kMinMineRounds))) {
      mine_round();
    }
    const Clock::time_point serve_start = Clock::now();
    // The windows' spans leave out the timers' reference passes.
    {
      RefTimer timer(nproc, &all_ref_passes);
      const std::uint64_t span_ns = trace != nullptr ? trace->NowNs() : 0;
      const obs::MetricsSnapshot before = registry.Snapshot();
      const double cpu0 = server_cpu();
      const WindowStats chunk = client.Run(mix, traffic, kHiRate, hi_chunk, true,
                                           kReplySampleEvery, &samples);
      const double cpu = server_cpu() - cpu0;
      const obs::MetricsSnapshot after = registry.Snapshot();
      if (trace != nullptr) trace->EndSpan(0, "serve.window", span_ns);
      raw_server_cpu_s += cpu;
      server_cpu_s += timer.Scale(cpu);
      account(chunk, "hi-rate window");
      hi.Append(chunk, hi_chunk * cycle);
      const double hits = static_cast<double>(CounterValue(after, "serve.cache_hits") -
                                              CounterValue(before, "serve.cache_hits"));
      cache_hits += hits;
      cache_lookups += hits + static_cast<double>(
                                  CounterValue(after, "serve.cache_misses") -
                                  CounterValue(before, "serve.cache_misses"));
      shard_loop_s += HistogramSum(after, "serve.shard_loop_seconds") -
                      HistogramSum(before, "serve.shard_loop_seconds");
    }
    {
      RefTimer timer(nproc, &all_ref_passes);
      const std::uint64_t span_ns = trace != nullptr ? trace->NowNs() : 0;
      const double cpu0 = server_cpu();
      const WindowStats chunk = client.Run(mix, traffic, kLoRate, lo_chunk, false,
                                           kReplySampleEvery, &samples);
      const double cpu = server_cpu() - cpu0;
      if (trace != nullptr) trace->EndSpan(0, "serve.window", span_ns);
      raw_server_cpu_s += cpu;
      server_cpu_s += timer.Scale(cpu);
      account(chunk, "lo-rate window");
      lo.Append(chunk, lo_chunk * cycle);
    }
    {
      obs::ScopedSpan span(trace, 0, "serve.bisect");
      const int until = kBisectProbes * (cycle + 1) / kCycles;
      for (; probes_done < until; ++probes_done) {
        const double rate = std::sqrt(pass_rate * fail_rate);
        const bool ok = probe(rate) || probe(rate);
        (ok ? pass_rate : fail_rate) = rate;
      }
    }
    serve_elapsed += SecondsSince(serve_start);
  }

  // Replies must equal the index + renderer answer computed here.
  for (const SampledReply& reply : samples) {
    report.Attempt();
    if (!ReplyMatches(reply, dataset, local_index)) {
      report.Fail("server reply differs from the local answer: " +
                  reply.json.substr(0, 120));
    }
  }

  // ---- End-to-end metrics. ------------------------------------------
  const std::vector<double>& reload_ms = hi.reload_ms;
  report.Set("setup_s", Median(dataset_setup_s) + Median(serve_setup_s), "s",
             kSetupReps);
  report.SetMedian("mine_s", mine_s, "s");
  report.SetMedian("mine_1t_s", mine_1t_s, "s");
  report.SetMedian("farm_s", farm_s, "s");
  report.Set("p50_us", Percentile(hi.latency_us, 50), "us", hi.latency_us.size());
  report.Set("p99_us", IntervalP99(hi, kHiSlice), "us", hi.latency_us.size());
  report.Set("p99_us_lo", IntervalP99(lo, kLoSlice), "us", lo.latency_us.size());
  report.Set("cold_p50_us", Percentile(hi.cold_us, 50), "us", hi.cold_us.size());
  report.Set("warm_p50_us", Percentile(hi.warm_us, 50), "us", hi.warm_us.size());
  report.Set("qps_max", pass_rate, "1/s", kBisectProbes);
  report.SetMedian("reload_ms", reload_ms, "ms");
  const std::size_t reads = hi.latency_us.size() + lo.latency_us.size();
  const double per_read = reads > 0 ? 1e6 / static_cast<double>(reads) : 0.0;
  report.Set("serve_cpu_us", server_cpu_s * per_read, "us", reads);
  report.Set("raw.setup_s", Median(raw_dataset_setup_s) + Median(raw_serve_setup_s), "s",
             kSetupReps);
  report.SetMedian("raw.mine_s", raw_mine_s, "s");
  report.SetMedian("raw.mine_1t_s", raw_mine_1t_s, "s");
  report.SetMedian("raw.farm_s", raw_farm_s, "s");
  report.Set("raw.serve_cpu_us", raw_server_cpu_s * per_read, "us", reads);
  report.Set("host.ref_ms", Median(ref_passes) * 1e3, "ms", ref_passes.size());
  report.Set("host.ref_all_ms", Median(all_ref_passes) * 1e3, "ms", all_ref_passes.size());

  // ---- Per-layer metrics (traced run). ------------------------------
  if (trace != nullptr) {
    std::vector<double> transpose_s;
    {
      const BinaryDataset permuted =
          PermuteRows(dataset, OrderRowsByConsequent(dataset, options.consequent));
      for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
        obs::ScopedSpan span(trace, 0, "dataset.transpose");
        const Clock::time_point t = Clock::now();
        const TransposedTable table = TransposedTable::Build(permuted);
        transpose_s.push_back(SecondsSince(t));
        if (table.num_items() != permuted.num_items()) {
          report.Attempt();
          report.Fail("transposed table lost items");
        }
      }
    }
    report.SetMedian("dataset.load_s", load_s, "s");
    report.SetMedian("dataset.discretize_s", discretize_s, "s");
    report.SetMedian("dataset.transpose_s", transpose_s, "s");

    report.SetMedian("core.search_s", search_s, "s");
    report.Set("core.search_1t_s", Median(search_1t_s), "s", search_1t_s.size());
    report.SetMedian("core.merge_s", merge_s, "s");
    report.Set("core.nodes", static_cast<double>(nt_stats.nodes_visited), "count", 1);
    report.Set("core.groups", static_cast<double>(groups), "count", 1);
    report.Set("core.tasks_spawned", static_cast<double>(nt_stats.tasks_spawned), "count", 1);
    report.Set("core.steals", static_cast<double>(nt_stats.task_steals), "count", 1);
    report.SetMedian("core.cpu_util", cpu_util, "ratio");
    report.SetMedian("core.minelb_s", minelb_s, "s");
    report.SetMedian("core.remap_s", remap_s, "s");
    report.SetMedian("snapshot.encode_s", encode_s, "s");
    report.Set("snapshot.bytes", static_cast<double>(reference.size()), "bytes", 1);
    report.Set("trace.overhead_s", Median(traced_mine_s) - Median(raw_mine_s), "s",
               traced_mine_s.size());

    MineLbProbe lb;
    {
      obs::ScopedSpan span(trace, 0, "minelb.probe");
      lb = ProbeMineLb(dataset, mined.groups, options.max_lower_bound_candidates);
    }
    report.Set("minelb.group_us_p50", Percentile(lb.group_us, 50), "us", lb.group_us.size());
    report.Set("minelb.group_us_p99", Percentile(lb.group_us, 99), "us", lb.group_us.size());
    report.Set("minelb.group_us_max", Percentile(lb.group_us, 100), "us", lb.group_us.size());
    report.Set("minelb.bounds_per_group", lb.bounds_per_group, "count", lb.group_us.size());
    report.Set("minelb.truncated", static_cast<double>(lb.truncated), "count", lb.group_us.size());

    report.SetMedian("farm.plan_s", plan_s, "s");
    report.SetMedian("farm.lease_wait_s", lease_wait_s, "s");
    report.SetMedian("farm.finalize_s", finalize_s, "s");
    report.Set("farm.leases", static_cast<double>(farm_stats.leases_granted), "count", 1);
    report.Set("farm.releases", static_cast<double>(farm_stats.releases), "count", 1);
    report.Set("farm.duplicates", static_cast<double>(farm_stats.duplicate_results), "count", 1);
    FarmSeamProbe seam;
    {
      obs::ScopedSpan span(trace, 0, "farm.seam");
      seam = ProbeFarmSeam(dataset, options, trace, 0);
    }
    report.Set("farm.lease_ms_p50", Percentile(seam.lease_ms, 50), "ms", seam.lease_ms.size());
    report.Set("farm.lease_ms_max", Percentile(seam.lease_ms, 100), "ms", seam.lease_ms.size());
    report.Set("farm.upload_bytes", seam.upload_bytes, "bytes", seam.lease_ms.size());

    ServeLayerProbe sl;
    {
      obs::ScopedSpan span(trace, 0, "serve.probe");
      sl = ProbeServeLayers(mix, traffic, dataset, local_index, kServeProbeRequests);
    }
    report.Attempt(sl.parse_us.size());
    for (std::size_t i = 0; i < sl.parse_errors; ++i) {
      report.Fail("a request the mix produced does not parse");
    }
    report.SetMedian("serve.parse_us", sl.parse_us, "us");
    report.SetMedian("serve.index_us_topk", sl.topk_us, "us");
    report.SetMedian("serve.index_us_contains", sl.contains_us, "us");
    report.SetMedian("serve.index_us_cover", sl.cover_us, "us");
    report.SetMedian("serve.index_us_filter", sl.filter_us, "us");
    report.SetMedian("serve.encode_us", sl.encode_us, "us");
    report.Set("serve.response_bytes_p50", Percentile(sl.response_bytes, 50), "bytes",
               sl.response_bytes.size());

    report.Set("serve.cache_hit_ratio",
               cache_lookups > 0 ? cache_hits / cache_lookups : 0.0, "ratio",
               static_cast<std::size_t>(cache_lookups));
    report.SetMedian("snapshot.decode_s", decode_s, "s");
    report.SetMedian("serve.index_build_s", index_build_s, "s");
    report.Set("serve.shard_loop_s", shard_loop_s, "s", kServeShards);
    report.Set("serve.gen_lag_ms_p99", Percentile(hi.lag_ms, 99), "ms", hi.lag_ms.size());

    KernelProbe kernels;
    {
      obs::ScopedSpan span(trace, 0, "util.kernels");
      kernels = ProbeKernels(dataset.num_rows(), seed);
    }
    report.Set("kernel.and_count_ns", kernels.and_count_ns, "ns", 5);
    report.Set("kernel.intersects_all_of_ns", kernels.intersects_all_of_ns, "ns", 5);
  }

  server->Shutdown();
  server.reset();
  report.Set("peak_rss_mb", peak_rss_mb, "MB", 1);

  if (trace != nullptr) {
    trace->EndSpan(0, "bench.run", run_start_ns);
    if (!args.trace_out.empty() && !trace->WriteJsonFile(args.trace_out).ok()) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_out.c_str());
      return 2;
    }
  }

  std::printf("mining: %zu rounds in %.1f s; serving: %.1f s; %zu groups\n",
              rounds, mine_elapsed, serve_elapsed, groups);
  for (const auto& [name, m] : report.metrics()) {
    std::printf("  %-28s %14.6g %-6s (n=%zu)\n", name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  const double failed_frac =
      report.attempted() == 0
          ? 1.0
          : static_cast<double>(report.failed()) /
                static_cast<double>(report.attempted());
  std::printf("  %-28s %14.6g %-6s (n=%zu)\n", "failed_frac", failed_frac,
              "ratio", report.attempted());

  if (!args.out.empty()) {
    const std::vector<std::pair<std::string, std::string>> context = {
        {"workload", JsonString(w.name)},
        {"seed", std::to_string(seed)},
        {"trace", args.trace ? "true" : "false"},
        {"seconds", FullNumber(args.seconds)},
        {"host", "{\"nproc\": " + std::to_string(nproc) +
                     ", \"simd\": " + JsonString(simd) +
                     ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
                     ", \"compiler\": " + JsonString(Compiler()) +
                     ", \"date\": " + JsonString(UtcDate()) + "}"},
        {"failed_frac", FullNumber(failed_frac)},
    };
    if (!WriteFile(args.out, report.ToJson(context))) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.out.c_str());
      return 2;
    }
  }
  return report.failed() == 0 ? 0 : 1;
}

/// Checks the report's JSON rendering on strings with control
/// characters and the order statistics; prints the rendered JSON so a
/// caller can parse it.
int SelfTest() {
  int bad = 0;
  auto expect = [&bad](bool cond, const char* what) {
    if (!cond) {
      std::fprintf(stderr, "selftest: %s\n", what);
      ++bad;
    }
  };
  expect(Median({3, 1, 2}) == 2.0, "median of an odd count");
  expect(Median({4, 1, 2, 3}) == 2.5, "median of an even count");
  expect(Percentile({5, 1, 4, 2, 3}, 99) == 5.0, "p99 of five values");
  expect(Percentile({5, 1, 4, 2, 3}, 50) == 3.0, "p50 of five values");
  expect(Percentile({}, 50) == 0.0, "percentile of nothing");
  expect(JsonString(std::string("a\x01\x1f\"\\\n", 6)) ==
             "\"a\\u0001\\u001f\\\"\\\\\\n\"",
         "control characters escape as \\u00XX");
  Report report;
  report.Set("x.y_s", 0.1, "s", 3);
  report.Attempt();
  report.Fail(std::string("tab\there, bell\x07, nul-free\x1b[0m", 25));
  std::printf("%s", report.ToJson({{"note", JsonString("line\nbreak\r")}}).c_str());
  return bad == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --work-dir DIR [--seed N] "
               "[--seconds S] [--trace 0|1] [--out FILE] [--trace-out FILE]\n"
               "       perfbench --selftest\n"
               "workloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace perfbench
}  // namespace farmer

int main(int argc, char** argv) {
  using namespace farmer::perfbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args.selftest = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return Usage();
      args.has_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds > 0.0)) return Usage();
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage();
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--out") {
      args.out = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return Usage();
    }
  }
  if (args.selftest) return SelfTest();
  if (args.work_dir.empty()) return Usage();
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) return RunWorkload(w, args);
  }
  return Usage();
}
