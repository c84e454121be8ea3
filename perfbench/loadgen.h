#ifndef FARMER_PERFBENCH_LOADGEN_H_
#define FARMER_PERFBENCH_LOADGEN_H_

// The serve workload's traffic: a seeded query mix and an open-loop
// FQP1 client that drives several connections from one thread.

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "dataset/dataset.h"
#include "serve/protocol.h"
#include "serve/snapshot.h"
#include "util/rng.h"
#include "util/status.h"

namespace farmer {
namespace perfbench {

/// One request of the mix in compact form: a cover query names a
/// dataset row (and the positions dropped from it to make a cold key)
/// instead of carrying its ~1,200 items.
struct QuerySpec {
  enum class Kind : std::uint8_t { kCover, kTopk, kContains, kFilter, kReload };
  static constexpr std::uint32_t kNoDrop = 0xFFFFFFFFu;

  Kind kind = Kind::kCover;
  bool warm = false;
  std::uint32_t row = 0;  // cover
  std::uint32_t drop_a = kNoDrop;
  std::uint32_t drop_b = kNoDrop;
  std::uint32_t k = 0;  // topk
  std::uint32_t limit = 0;
  ItemVector items;  // contains
  std::uint32_t min_support = 0;  // filter
  double min_confidence = 0.0;
};

/// Expands `q` into the request the server receives.
serve::QueryRequest ToRequest(const QuerySpec& q, const BinaryDataset& dataset);

/// The read mix: 40% cover of a dataset row (limit 10), 20% top-k by
/// confidence (k in [1,100]), 20% contains of 1-3 antecedent items
/// (limit 100), 20% filter (limit 100). Half of the reads come from a
/// fixed 64-query working set; the other half carry a canonical key no
/// earlier request of the run had, so the response cache cannot serve
/// them.
class QueryMix {
 public:
  static constexpr std::size_t kWorkingSet = 64;

  QueryMix(const BinaryDataset& dataset,
           const serve::RuleGroupSnapshot& snapshot,
           std::size_t min_support, std::uint64_t seed);

  QuerySpec Next(Rng& rng);

 private:
  QuerySpec Make(Rng& rng, bool warm);
  /// Draws the kind-specific fields; returns false when the key was
  /// already issued. `attempt` counts the redraws of this request.
  bool Fill(Rng& rng, bool warm, std::size_t attempt, QuerySpec* q);

  const BinaryDataset& dataset_;
  const serve::RuleGroupSnapshot& snapshot_;
  std::size_t min_support_;
  std::vector<QuerySpec> warm_;
  std::unordered_set<std::string> issued_;
};

/// What one open-loop window observed.
struct WindowStats {
  std::vector<double> latency_us;  // Completed reads: scheduled -> reply.
  std::vector<double> due_s;       // Their send times, from window start.
  std::vector<double> warm_us;
  std::vector<double> cold_us;
  std::vector<double> reload_ms;
  std::vector<double> lag_ms;  // Generator lateness of every send.
  std::size_t attempted = 0;   // Reads and reloads scheduled.
  std::size_t failed = 0;      // Errors, overloaded, timeouts, disconnects.
  std::vector<std::string> failures;  // First few failure descriptions.

  /// Adds `chunk`, a later window, whose send times start `offset_s`
  /// into this one.
  void Append(const WindowStats& chunk, double offset_s);
};

/// p99 of the reads due in each `interval_s` slice of the window,
/// median over the slices that hold at least 1,000 reads (ten beyond
/// the p99); the whole window's p99 when none does. A host stall of a
/// few tens of ms then moves one slice, not the reported tail.
double IntervalP99(const WindowStats& stats, double interval_s);

/// A read whose reply is kept for the correctness check.
struct SampledReply {
  QuerySpec spec;
  std::string json;
};

/// Open-loop FQP1 client: sends on a fixed schedule regardless of how
/// fast replies come back, spreading requests round-robin over its
/// connections, all from the calling thread.
class LoadClient {
 public:
  explicit LoadClient(const BinaryDataset& dataset) : dataset_(dataset) {}
  ~LoadClient();
  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  Status Connect(int port, std::size_t connections);

  /// Sends `rate` reads per second, evenly spaced, for `seconds`. With
  /// `reloads`, a reload goes out 0.25 s into the window and every
  /// 0.5 s after. Waits for every reply (at most `drain_s` past the last
  /// send). Every `sample_every`-th read (0 = none) keeps its reply in
  /// *samples.
  WindowStats Run(QueryMix& mix, Rng& rng, double rate, double seconds,
                  bool reloads, std::size_t sample_every,
                  std::vector<SampledReply>* samples);

 private:
  struct Conn {
    int fd = -1;
    bool dead = false;
    std::string out;
    std::size_t out_pos = 0;
    std::string in;
    std::size_t in_pos = 0;
  };

  const BinaryDataset& dataset_;
  std::vector<Conn> conns_;
  std::uint64_t next_id_ = 1;
};

}  // namespace perfbench
}  // namespace farmer

#endif  // FARMER_PERFBENCH_LOADGEN_H_
