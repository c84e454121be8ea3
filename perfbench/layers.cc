#include "layers.h"

#include <chrono>
#include <string>
#include <string_view>

#include "core/farmer.h"
#include "core/minelb.h"
#include "farm/protocol.h"
#include "report.h"
#include "serve/protocol.h"
#include "util/bitset.h"

namespace farmer {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

}  // namespace

std::vector<std::uint32_t> QueryIndex(const serve::QueryRequest& request,
                                      const serve::RuleGroupIndex& index) {
  using Op = serve::QueryRequest::Op;
  std::vector<std::uint32_t> ids;
  switch (request.op) {
    case Op::kTopkConfidence:
      ids = index.TopKByConfidence(request.k);
      break;
    case Op::kTopkChiSquare:
      ids = index.TopKByChiSquare(request.k);
      break;
    case Op::kContains:
      ids = index.AntecedentContains(request.items, request.limit);
      break;
    case Op::kCover:
      ids = index.RowCover(request.items, request.limit);
      break;
    case Op::kFilter:
      ids = index.Filter(request.min_support, request.min_confidence,
                         request.limit);
      break;
    default:
      break;
  }
  if (ids.size() > request.limit) ids.resize(request.limit);
  return ids;
}

MineLbProbe ProbeMineLb(const BinaryDataset& dataset,
                        const std::vector<RuleGroup>& groups,
                        std::size_t max_candidates) {
  MineLbProbe out;
  out.group_us.reserve(groups.size());
  std::size_t bounds = 0;
  for (const RuleGroup& g : groups) {
    const Clock::time_point start = Clock::now();
    const LowerBoundResult lb =
        MineLowerBounds(dataset, g.antecedent, g.rows, max_candidates);
    out.group_us.push_back(MicrosSince(start));
    bounds += lb.lower_bounds.size();
    if (lb.truncated) ++out.truncated;
  }
  if (!groups.empty()) {
    out.bounds_per_group =
        static_cast<double>(bounds) / static_cast<double>(groups.size());
  }
  return out;
}

FarmSeamProbe ProbeFarmSeam(const BinaryDataset& dataset,
                            const MinerOptions& options,
                            obs::TraceSession* trace, std::size_t lane) {
  FarmSeamProbe out;
  internal::FarmerMiner miner(dataset, options);
  const internal::FarmerMiner::FarmPlan& plan = miner.PlanFarm();
  for (std::uint32_t row : plan.lease_rows) {
    obs::ScopedSpan span(trace, lane, "farm.lease");
    span.Arg("row", row);
    const Clock::time_point start = Clock::now();
    MinerStats stats;
    const std::vector<MineSegment> segments =
        miner.MineFarmLease(row, nullptr, &stats);
    out.lease_ms.push_back(MicrosSince(start) / 1e3);
    out.upload_bytes +=
        static_cast<double>(farm::EncodeSegments(segments).size());
  }
  return out;
}

ServeLayerProbe ProbeServeLayers(QueryMix& mix, Rng& rng,
                                 const BinaryDataset& dataset,
                                 const serve::RuleGroupIndex& index,
                                 std::size_t requests) {
  using Op = serve::QueryRequest::Op;
  ServeLayerProbe out;
  for (std::size_t i = 0; i < requests; ++i) {
    serve::QueryRequest sent = ToRequest(mix.Next(rng), dataset);
    sent.bin_id = i + 1;
    const std::string frame = serve::EncodeBinaryRequest(sent);

    Clock::time_point start = Clock::now();
    std::size_t consumed = 0;
    std::uint8_t opcode = 0;
    std::string_view payload;
    std::string error;
    serve::QueryRequest request;
    const bool parsed =
        serve::ExtractFrame(frame, &consumed, &opcode, &payload, &error) ==
            serve::FrameExtract::kComplete &&
        serve::ParseBinaryRequest(opcode, payload, &request).ok();
    out.parse_us.push_back(MicrosSince(start));
    if (!parsed) {
      ++out.parse_errors;
      continue;
    }

    std::vector<double>* bucket = request.op == Op::kTopkConfidence ? &out.topk_us
                                  : request.op == Op::kContains     ? &out.contains_us
                                  : request.op == Op::kCover        ? &out.cover_us
                                                                    : &out.filter_us;
    start = Clock::now();
    const std::vector<std::uint32_t> ids = QueryIndex(request, index);
    bucket->push_back(MicrosSince(start));

    start = Clock::now();
    const std::string response = serve::FinishResponse(
        serve::RenderGroupsPayload(request, index, ids), /*cached=*/false);
    out.encode_us.push_back(MicrosSince(start));
    out.response_bytes.push_back(static_cast<double>(response.size()));
  }
  return out;
}

KernelProbe ProbeKernels(std::size_t width, std::uint64_t seed) {
  constexpr std::size_t kSets = 8;
  constexpr std::size_t kCalls = std::size_t{1} << 20;
  constexpr int kBatches = 5;
  Rng rng(seed);
  std::vector<Bitset> sets;
  for (std::size_t s = 0; s < kSets; ++s) {
    Bitset b(width);
    // Dense sets keep the running intersection of IntersectsAllOf
    // non-empty for several steps, as in the miner's back scan.
    for (std::size_t i = 0; i < width; ++i) {
      if (rng.NextBelow(10) < 8) b.Set(i);
    }
    sets.push_back(std::move(b));
  }
  const Bitset* chain[4] = {&sets[1], &sets[2], &sets[3], &sets[4]};
  Bitset scratch(width);

  std::vector<double> and_ns;
  std::vector<double> all_ns;
  std::size_t sink = 0;
  for (int batch = 0; batch < kBatches; ++batch) {
    Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < kCalls; ++i) {
      sink += sets[i % kSets].AndCount(sets[(i + 3) % kSets]);
    }
    and_ns.push_back(MicrosSince(start) * 1e3 / static_cast<double>(kCalls));
    start = Clock::now();
    for (std::size_t i = 0; i < kCalls; ++i) {
      sink += sets[i % kSets].IntersectsAllOf(chain, 1 + i % 4, &scratch) ? 1 : 0;
    }
    all_ns.push_back(MicrosSince(start) * 1e3 / static_cast<double>(kCalls));
  }
  // Keeps the loops observable so they cannot be folded away.
  if (sink == 0) std::fprintf(stderr, "perfbench: kernel sink was zero\n");
  KernelProbe out;
  out.and_count_ns = Median(and_ns);
  out.intersects_all_of_ns = Median(all_ns);
  return out;
}

}  // namespace perfbench
}  // namespace farmer
