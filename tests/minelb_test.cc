#include "core/minelb.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "core/brute_force.h"
#include "core/farmer.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace farmer {
namespace {

using testing_util::AsSet;
using testing_util::MakeDataset;
using testing_util::RandomDataset;

TEST(MineLbTest, PaperExampleSeven) {
  // Example 7: upper bound antecedent A = abcde; other rows r1 = abcf,
  // r2 = cdeg. Expected lower bounds: {ad, bd, ae, be}.
  // Build a dataset where some row set supports abcde: one row abcde
  // (class 1) plus the two interfering rows.
  BinaryDataset ds = MakeDataset({
      {{0, 1, 2, 3, 4}, 1},  // abcde
      {{0, 1, 2, 5}, 0},     // abcf
      {{2, 3, 4, 6}, 0},     // cdeg
  });
  const ItemVector antecedent = {0, 1, 2, 3, 4};
  Bitset rows(3);
  rows.Set(0);
  LowerBoundResult lb = MineLowerBounds(ds, antecedent, rows);
  EXPECT_FALSE(lb.truncated);
  EXPECT_EQ(AsSet(lb.lower_bounds),
            AsSet({{0, 3}, {1, 3}, {0, 4}, {1, 4}}));
}

TEST(MineLbTest, SingletonAntecedent) {
  BinaryDataset ds = MakeDataset({{{0, 1}, 1}, {{1}, 0}});
  Bitset rows(2);
  rows.Set(0);
  LowerBoundResult lb = MineLowerBounds(ds, {0, 1}, rows);
  // Item 0 alone identifies row 0; item 1 does not.
  EXPECT_EQ(AsSet(lb.lower_bounds), AsSet({{0}}));
}

TEST(MineLbTest, NoInterferingRowsYieldSingletons) {
  // When the antecedent's rows are the whole dataset, every single item of
  // the antecedent is already a lower bound.
  BinaryDataset ds = MakeDataset({{{0, 1, 2}, 1}, {{0, 1, 2}, 0}});
  Bitset rows(2);
  rows.Set(0);
  rows.Set(1);
  LowerBoundResult lb = MineLowerBounds(ds, {0, 1, 2}, rows);
  EXPECT_EQ(AsSet(lb.lower_bounds), AsSet({{0}, {1}, {2}}));
}

TEST(MineLbTest, CandidateCapSetsTruncatedFlag) {
  // Force an update step whose candidate cross-product exceeds the cap.
  BinaryDataset ds = MakeDataset({
      {{0, 1, 2, 3, 4, 5, 6, 7}, 1},
      {{0, 1, 2, 3}, 0},  // A' = {0,1,2,3}: 4 bounds × 4 missing = 16.
  });
  Bitset rows(2);
  rows.Set(0);
  LowerBoundResult lb =
      MineLowerBounds(ds, {0, 1, 2, 3, 4, 5, 6, 7}, rows, 8);
  EXPECT_TRUE(lb.truncated);
}

// Property: MineLB equals the exhaustive minimal-subset search on random
// data, for every rule group of the dataset.
class MineLbSweepTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MineLbSweepTest, MatchesBruteForceOnAllRuleGroups) {
  BinaryDataset ds = RandomDataset(8, 10, 0.5, GetParam());
  for (const RuleGroup& g : BruteForceAllRuleGroups(ds, 1)) {
    if (g.antecedent.size() > 12) continue;  // Keep the oracle tractable.
    LowerBoundResult lb = MineLowerBounds(ds, g.antecedent, g.rows);
    ASSERT_FALSE(lb.truncated);
    EXPECT_EQ(AsSet(lb.lower_bounds),
              AsSet(BruteForceLowerBounds(ds, g.antecedent, g.rows)))
        << "seed=" << GetParam()
        << " antecedent size=" << g.antecedent.size();
  }
}

INSTANTIATE_TEST_SUITE_P(RandomDatasets, MineLbSweepTest,
                         ::testing::Range<std::uint64_t>(1, 25));

// Denser sweep: larger antecedents stress the incremental update.
class MineLbDenseTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MineLbDenseTest, MatchesBruteForceOnDenseRows) {
  BinaryDataset ds = RandomDataset(7, 14, 0.8, GetParam());
  for (const RuleGroup& g : BruteForceAllRuleGroups(ds, 1)) {
    if (g.antecedent.size() > 14) continue;
    LowerBoundResult lb = MineLowerBounds(ds, g.antecedent, g.rows);
    ASSERT_FALSE(lb.truncated);
    EXPECT_EQ(AsSet(lb.lower_bounds),
              AsSet(BruteForceLowerBounds(ds, g.antecedent, g.rows)))
        << "seed=" << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(DenseDatasets, MineLbDenseTest,
                         ::testing::Range<std::uint64_t>(100, 110));

TEST(MineLbTest, LowerBoundsHaveSameSupportAsUpperBound) {
  BinaryDataset ds = RandomDataset(10, 12, 0.45, 5);
  for (const RuleGroup& g : BruteForceAllRuleGroups(ds, 1)) {
    LowerBoundResult lb = MineLowerBounds(ds, g.antecedent, g.rows);
    for (const ItemVector& bound : lb.lower_bounds) {
      EXPECT_EQ(RowSupportSet(ds, bound), g.rows);
    }
  }
}

TEST(MineLbTest, ValidatorAcceptsRealOutput) {
  for (std::uint64_t seed = 40; seed < 45; ++seed) {
    BinaryDataset ds = RandomDataset(10, 12, 0.45, seed);
    for (const RuleGroup& g : BruteForceAllRuleGroups(ds, 1)) {
      LowerBoundResult lb = MineLowerBounds(ds, g.antecedent, g.rows);
      ASSERT_FALSE(lb.truncated);
      Status s = ValidateLowerBounds(ds, g.antecedent, g.rows,
                                     lb.lower_bounds);
      EXPECT_TRUE(s.ok()) << s.ToString() << " seed=" << seed;
    }
  }
}

TEST(MineLbTest, ValidatorRejectsCorruptedBounds) {
  // Paper Example 7 setup (see PaperExampleSeven above).
  BinaryDataset ds = MakeDataset({
      {{0, 1, 2, 3, 4}, 1},
      {{0, 1, 2, 5}, 0},
      {{2, 3, 4, 6}, 0},
  });
  const ItemVector antecedent = {0, 1, 2, 3, 4};
  Bitset rows(3);
  rows.Set(0);
  LowerBoundResult lb = MineLowerBounds(ds, antecedent, rows);
  ASSERT_FALSE(lb.lower_bounds.empty());

  // Non-minimal: the full antecedent generates the rows but every proper
  // superset of a true bound is non-minimal.
  {
    auto corrupted = lb.lower_bounds;
    corrupted[0] = antecedent;
    EXPECT_FALSE(
        ValidateLowerBounds(ds, antecedent, rows, corrupted).ok());
  }
  // Non-generating: item 2 (c) appears in every row, so {c} supports all
  // three rows, not just row 0.
  {
    auto corrupted = lb.lower_bounds;
    corrupted[0] = ItemVector{2};
    EXPECT_FALSE(
        ValidateLowerBounds(ds, antecedent, rows, corrupted).ok());
  }
  // Not a subset of the antecedent.
  {
    auto corrupted = lb.lower_bounds;
    corrupted[0] = ItemVector{5};
    EXPECT_FALSE(
        ValidateLowerBounds(ds, antecedent, rows, corrupted).ok());
  }
  // Empty bound.
  {
    auto corrupted = lb.lower_bounds;
    corrupted[0] = ItemVector{};
    EXPECT_FALSE(
        ValidateLowerBounds(ds, antecedent, rows, corrupted).ok());
  }
}

// An already-expired deadline: waiting on ExpiredNow() first makes the
// test deterministic on any machine speed.
Deadline ExpiredDeadline() {
  Deadline d = Deadline::After(1e-9);
  while (!d.ExpiredNow()) {
  }
  return d;
}

TEST(MineLbTest, ExpiredDeadlineStopsAtNextCheckpoint) {
  // Paper Example 7 setup: two interfering rows force update steps, so
  // the per-step checkpoint must fire and flag the result.
  BinaryDataset ds = MakeDataset({
      {{0, 1, 2, 3, 4}, 1},
      {{0, 1, 2, 5}, 0},
      {{2, 3, 4, 6}, 0},
  });
  const ItemVector antecedent = {0, 1, 2, 3, 4};
  Bitset rows(3);
  rows.Set(0);
  const Deadline expired = ExpiredDeadline();
  LowerBoundResult lb = MineLowerBounds(ds, antecedent, rows, 0, &expired);
  EXPECT_TRUE(lb.timed_out);
  EXPECT_TRUE(lb.truncated);
  // Whatever survived is still an under-approximation: every bound is a
  // non-empty subset of the antecedent.
  for (const ItemVector& bound : lb.lower_bounds) {
    EXPECT_FALSE(bound.empty());
    EXPECT_TRUE(std::includes(antecedent.begin(), antecedent.end(),
                              bound.begin(), bound.end()));
  }
}

TEST(MineLbTest, NullAndLiveDeadlinesChangeNothing) {
  BinaryDataset ds = RandomDataset(16, 14, 0.4, 11);
  const Deadline generous = Deadline::After(3600.0);
  for (const RuleGroup& g : BruteForceAllRuleGroups(ds, 1)) {
    LowerBoundResult plain = MineLowerBounds(ds, g.antecedent, g.rows);
    LowerBoundResult timed =
        MineLowerBounds(ds, g.antecedent, g.rows, 0, &generous);
    EXPECT_FALSE(timed.timed_out);
    EXPECT_EQ(plain.lower_bounds, timed.lower_bounds);
  }
}

TEST(MineLbTest, MinerPropagatesMineLbTimeout) {
  // A deadline that expires during (not before) the search would be
  // machine-dependent; an expired one deterministically exercises the
  // propagation path: mining stops, MineLB never completes a group, and
  // the result is flagged partial.
  BinaryDataset ds = RandomDataset(30, 16, 0.45, 5);
  MinerOptions opts;
  opts.consequent = 1;
  opts.min_support = 1;
  opts.mine_lower_bounds = true;
  opts.deadline = ExpiredDeadline();
  FarmerResult r = MineFarmer(ds, opts);
  EXPECT_TRUE(r.stats.timed_out);
}

// Differential test of the miner's MineLB phase against the oracle: on
// seeded random datasets (<= 12 rows, <= 16 items) every group's bounds
// at 1 and 4 threads equal the exhaustive minimal-subset search.
class MineLbMinerOracleTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MineLbMinerOracleTest, MinerBoundsEqualBruteForceAtOneAndFourThreads) {
  const std::uint64_t seed = GetParam();
  Rng shape(~seed);
  const std::size_t rows = shape.NextInt(6, 12);
  const std::size_t items = shape.NextInt(8, 16);
  const double density = 0.35 + 0.1 * static_cast<double>(shape.NextInt(0, 4));
  BinaryDataset ds = RandomDataset(rows, items, density, seed);
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    MinerOptions opts;
    opts.consequent = 1;
    opts.min_support = 1;
    opts.num_threads = threads;
    opts.report_all_rule_groups = true;
    FarmerResult r = MineFarmer(ds, opts);
    for (const RuleGroup& g : r.groups) {
      ASSERT_FALSE(g.lower_bounds_truncated);
      EXPECT_EQ(AsSet(g.lower_bounds),
                AsSet(BruteForceLowerBounds(ds, g.antecedent, g.rows)))
          << "seed=" << seed << " threads=" << threads
          << " rows=" << g.rows.ToString();
    }
  }
}

TEST_P(MineLbMinerOracleTest, CandidateCapIsThreadCountInvariant) {
  // A cap small enough to cut some groups: the truncated
  // under-approximations and their flags must not depend on the
  // schedule, and the uncut groups still match the oracle.
  const std::uint64_t seed = GetParam();
  BinaryDataset ds = RandomDataset(12, 16, 0.7, seed);
  MinerOptions opts;
  opts.consequent = 1;
  opts.min_support = 1;
  opts.report_all_rule_groups = true;
  opts.max_lower_bound_candidates = 6;
  FarmerResult one = MineFarmer(ds, opts);
  opts.num_threads = 4;
  FarmerResult four = MineFarmer(ds, opts);
  ASSERT_EQ(one.groups.size(), four.groups.size());
  for (std::size_t i = 0; i < one.groups.size(); ++i) {
    const RuleGroup& a = one.groups[i];
    const RuleGroup& b = four.groups[i];
    ASSERT_EQ(a.rows, b.rows);
    EXPECT_EQ(a.lower_bounds_truncated, b.lower_bounds_truncated);
    EXPECT_EQ(a.lower_bounds, b.lower_bounds);
    if (!a.lower_bounds_truncated) {
      EXPECT_EQ(AsSet(a.lower_bounds),
                AsSet(BruteForceLowerBounds(ds, a.antecedent, a.rows)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SmallDatasets, MineLbMinerOracleTest,
                         ::testing::Range<std::uint64_t>(200, 216));

TEST(MineLbTest, CandidateCapCutsSomeGroupsInTheCapSweep) {
  // Guards CandidateCapIsThreadCountInvariant against passing vacuously:
  // at least one of its datasets hits the cap.
  std::size_t truncated = 0;
  for (std::uint64_t seed = 200; seed < 216; ++seed) {
    MinerOptions opts;
    opts.consequent = 1;
    opts.min_support = 1;
    opts.report_all_rule_groups = true;
    opts.max_lower_bound_candidates = 6;
    for (const RuleGroup& g :
         MineFarmer(RandomDataset(12, 16, 0.7, seed), opts).groups) {
      truncated += g.lower_bounds_truncated ? 1 : 0;
    }
  }
  EXPECT_GT(truncated, 0u);
}

TEST(MineLbTest, DeadlineLeavesEveryGroupBoundedOrFlagged) {
  // The deadline has passed before mining starts, but the search reads
  // the clock only every 256 nodes and this tree is smaller than that,
  // so the groups survive and it is the MineLB phase that meets the
  // deadline. Every group must then be either fully bounded or flagged
  // truncated; a skipped group must not pass for "no bounds exist".
  BinaryDataset ds = RandomDataset(10, 12, 0.5, 7);
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    MinerOptions opts;
    opts.consequent = 1;
    opts.min_support = 1;
    opts.num_threads = threads;
    opts.deadline = Deadline::After(1e-9);
    FarmerResult r = MineFarmer(ds, opts);
    ASSERT_LT(r.stats.nodes_visited, 256u);
    ASSERT_FALSE(r.groups.empty());
    EXPECT_TRUE(r.stats.timed_out);
    std::size_t flagged = 0;
    for (const RuleGroup& g : r.groups) {
      if (g.lower_bounds_truncated) {
        ++flagged;
        continue;
      }
      Status s = ValidateLowerBounds(ds, g.antecedent, g.rows,
                                     g.lower_bounds);
      EXPECT_TRUE(s.ok()) << s.ToString();
      EXPECT_FALSE(g.lower_bounds.empty());
    }
    // The deadline passed before the phase began, so no group was
    // computed: all of them must carry the flag.
    EXPECT_EQ(flagged, r.groups.size());
  }
}

}  // namespace
}  // namespace farmer
