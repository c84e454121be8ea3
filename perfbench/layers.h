#ifndef FARMER_PERFBENCH_LAYERS_H_
#define FARMER_PERFBENCH_LAYERS_H_

// Per-layer probes for the traced run: each drives one layer through
// its public functions in isolation and times the calls one by one.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/miner_options.h"
#include "core/rule.h"
#include "dataset/dataset.h"
#include "loadgen.h"
#include "obs/trace.h"
#include "serve/index.h"
#include "serve/protocol.h"

namespace farmer {
namespace perfbench {

/// The ids a group-returning read selects, cut to its limit: the index
/// call the server makes for it.
std::vector<std::uint32_t> QueryIndex(const serve::QueryRequest& request,
                                      const serve::RuleGroupIndex& index);

/// MineLowerBounds timed per group.
struct MineLbProbe {
  std::vector<double> group_us;
  double bounds_per_group = 0.0;
  std::size_t truncated = 0;
};
MineLbProbe ProbeMineLb(const BinaryDataset& dataset,
                        const std::vector<RuleGroup>& groups,
                        std::size_t max_candidates);

/// The farm seam without sockets: PlanFarm, then MineFarmLease on every
/// lease row in turn, each upload measured with EncodeSegments. Emits
/// one "farm.lease" span per lease on `lane` of `trace`.
struct FarmSeamProbe {
  std::vector<double> lease_ms;
  double upload_bytes = 0.0;
};
FarmSeamProbe ProbeFarmSeam(const BinaryDataset& dataset,
                            const MinerOptions& options,
                            obs::TraceSession* trace, std::size_t lane);

/// The serve request path without the event loop: frame parse, index
/// query per op, and payload render, each timed per request.
struct ServeLayerProbe {
  std::vector<double> parse_us;
  std::vector<double> topk_us;
  std::vector<double> contains_us;
  std::vector<double> cover_us;
  std::vector<double> filter_us;
  std::vector<double> encode_us;
  std::vector<double> response_bytes;
  std::size_t parse_errors = 0;
};
ServeLayerProbe ProbeServeLayers(QueryMix& mix, Rng& rng,
                                 const BinaryDataset& dataset,
                                 const serve::RuleGroupIndex& index,
                                 std::size_t requests);

/// Bitset kernels at `width` bits (the dataset's row count), in
/// nanoseconds per call, median over batches.
struct KernelProbe {
  double and_count_ns = 0.0;
  double intersects_all_of_ns = 0.0;
};
KernelProbe ProbeKernels(std::size_t width, std::uint64_t seed);

}  // namespace perfbench
}  // namespace farmer

#endif  // FARMER_PERFBENCH_LAYERS_H_
