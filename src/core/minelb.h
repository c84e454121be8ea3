#ifndef FARMER_CORE_MINELB_H_
#define FARMER_CORE_MINELB_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dataset/dataset.h"
#include "dataset/types.h"
#include "util/bitset.h"
#include "util/status.h"
#include "util/timer.h"

namespace farmer {

/// Result of a lower-bound computation for one rule group.
struct LowerBoundResult {
  /// The minimal antecedents of the group, each sorted ascending.
  std::vector<ItemVector> lower_bounds;
  /// True when the computation stopped early because the candidate cap was
  /// hit; `lower_bounds` is then a (valid-prefix) under-approximation.
  bool truncated = false;
  /// True when the computation was abandoned because the caller's
  /// deadline fired mid-update; implies `truncated`.
  bool timed_out = false;
};

/// Reusable scratch of MineLB: Σ, Γ and the candidates of an update step
/// live here as flat word matrices (one row of ⌈|A|/64⌉ words per set)
/// instead of one heap Bitset per set. Reusing one arena across groups
/// makes steady-state MineLB allocate only its result. The members are
/// MineLB's working state; callers only own and reuse the arena, one per
/// thread.
struct MineLbArena {
  /// Equally wide bitsets stored back to back.
  struct SetList {
    std::size_t width = 0;  // Words per set.
    std::vector<std::uint64_t> words;

    void Reset(std::size_t w) {
      width = w;
      words.clear();
    }
    std::size_t size() const { return words.size() / width; }
    const std::uint64_t* operator[](std::size_t i) const {
      return words.data() + i * width;
    }
    std::uint64_t* back() { return words.data() + words.size() - width; }
    void Push(const std::uint64_t* set) {
      words.insert(words.end(), set, set + width);
    }
    // Drops every set from index `n` on.
    void Truncate(std::size_t n) { words.resize(n * width); }
  };

  std::vector<std::uint64_t> sigma;        // One |A|-bit row per data row.
  std::vector<std::uint32_t> sigma_count;  // |I(r) ∩ A| per data row.
  std::vector<std::uint32_t> maximal;      // Rows outside R(A), then the
                                           // ones with a maximal I(r) ∩ A.
  std::vector<std::uint32_t> missing;      // Positions of A − A'.
  SetList gamma, next, gamma1;             // Γ, the next Γ, and Γ1.
};

/// MineLB (paper §3.4, Figure 9): computes the lower bounds of the closed
/// set `antecedent`, i.e. the minimal itemsets L ⊆ antecedent with
/// R(L) = R(antecedent).
///
/// `rows` must be R(antecedent). `item_rows[p]` is the row set of item
/// `antecedent[p]` (its tuple in the transposed table) over the same row
/// ids and size as `rows`. The algorithm is incremental: it starts from
/// singleton bounds and updates them for each maximal proper subset
/// `I(r) ∩ antecedent` contributed by rows outside `rows` (Lemmas
/// 3.10/3.11). Those subsets are built by scattering each item's rows
/// outside `rows` into a per-row word matrix. `max_candidates` caps the
/// intermediate candidate set per update step (0 = unlimited).
///
/// A non-null `deadline` is sampled before every update step (and
/// throttled inside the Σ scatter and the candidate filter), so a single
/// long MineLB invocation cannot overshoot a near-expired mining
/// deadline: the computation stops at the next checkpoint with
/// `timed_out` (and `truncated`) set and the bounds accumulated so far —
/// a valid under-approximation.
LowerBoundResult MineLowerBoundsFromTidsets(const ItemVector& antecedent,
                                            const Bitset* const* item_rows,
                                            const Bitset& rows,
                                            std::size_t max_candidates,
                                            const Deadline* deadline,
                                            MineLbArena* arena);

/// MineLB over a row-major dataset: derives each antecedent item's row
/// set from `dataset` and runs MineLowerBoundsFromTidsets with a fresh
/// arena. `rows` must be R(antecedent) over `dataset`'s row ids.
LowerBoundResult MineLowerBounds(const BinaryDataset& dataset,
                                 const ItemVector& antecedent,
                                 const Bitset& rows,
                                 std::size_t max_candidates = 0,
                                 const Deadline* deadline = nullptr);

/// Invariant validator for a (non-truncated) MineLB result: every lower
/// bound must be a *minimal generator* of its rule group — a subset of
/// `antecedent` with R(L) = `rows` such that dropping any single item
/// strictly enlarges the row set. Returns the first violation found, or
/// Ok. Brute-force (O(bounds · |L| · rows · log)), intended for
/// MinerOptions::verify_invariants and tests, not production runs.
Status ValidateLowerBounds(const BinaryDataset& dataset,
                           const ItemVector& antecedent, const Bitset& rows,
                           const std::vector<ItemVector>& lower_bounds);

}  // namespace farmer

#endif  // FARMER_CORE_MINELB_H_
