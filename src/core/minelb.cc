#include "core/minelb.h"

#include <algorithm>

#include "util/check.h"

namespace farmer {

namespace {

using Word = std::uint64_t;
using SetList = MineLbArena::SetList;

constexpr Word kOne = 1;

// a ⊆ b, both `width` words long.
bool IsSubset(const Word* a, const Word* b, std::size_t width) {
  for (std::size_t w = 0; w < width; ++w) {
    if ((a[w] & ~b[w]) != 0) return false;
  }
  return true;
}

bool TestBit(const Word* set, std::size_t pos) {
  return (set[pos >> 6] >> (pos & 63)) & 1;
}

// R(L): the rows of `dataset` containing every item of `itemset`.
Bitset SupportRows(const BinaryDataset& dataset, const ItemVector& itemset) {
  Bitset rows(dataset.num_rows());
  for (RowId r = 0; r < dataset.num_rows(); ++r) {
    bool all = true;
    for (ItemId i : itemset) {
      if (!dataset.RowContains(r, i)) {
        all = false;
        break;
      }
    }
    if (all) rows.Set(r);
  }
  return rows;
}

}  // namespace

LowerBoundResult MineLowerBoundsFromTidsets(const ItemVector& antecedent,
                                            const Bitset* const* item_rows,
                                            const Bitset& rows,
                                            std::size_t max_candidates,
                                            const Deadline* deadline,
                                            MineLbArena* arena) {
  LowerBoundResult result;
  const std::size_t a_size = antecedent.size();
  if (a_size == 0) return result;
  const std::size_t width = (a_size + 63) / 64;
  const std::size_t num_rows = rows.size();

  // Step 1: Γ starts as the singletons of the antecedent. All sets use
  // positions local to `antecedent`.
  SetList& gamma = arena->gamma;
  gamma.Reset(width);
  gamma.words.assign(a_size * width, 0);
  for (std::size_t p = 0; p < a_size; ++p) {
    gamma.words[p * width + (p >> 6)] |= kOne << (p & 63);
  }

  // Step 2: Σ = the proper subsets I(r) ∩ A for rows r outside R(A).
  // Row r's set is {p : r ∈ item_rows[p]}, so scattering every item's
  // rows outside R(A) into a row-major matrix builds all of them at
  // once: the same sets the row-by-row definition gives, at a cost of
  // the items' tuples instead of the dataset's full rows.
  std::vector<Word>& sigma = arena->sigma;
  sigma.assign(num_rows * width, 0);
  const Bitset::WordVector& in_rows = rows.words();
  for (std::size_t p = 0; p < a_size; ++p) {
    // A timeout here leaves Γ at the singleton stage, still a valid
    // under-approximation.
    if (deadline != nullptr && deadline->Expired()) {
      result.timed_out = result.truncated = true;
      break;
    }
    const Bitset::WordVector& tuple = item_rows[p]->words();
    FARMER_DCHECK(tuple.size() == in_rows.size());
    Word* column = sigma.data() + (p >> 6);
    const Word bit = kOne << (p & 63);
    for (std::size_t w = 0; w < tuple.size(); ++w) {
      for (Word out = tuple[w] & ~in_rows[w]; out != 0; out &= out - 1) {
        column[(w * 64 + __builtin_ctzll(out)) * width] |= bit;
      }
    }
  }

  // By Lemma 3.11 only the maximal sets of Σ matter. Keep them in
  // descending cardinality (rows ascending, then sorted by the
  // precomputed counts).
  std::vector<std::uint32_t>& maximal = arena->maximal;
  maximal.clear();
  if (!result.timed_out) {
    std::vector<std::uint32_t>& count = arena->sigma_count;
    count.resize(num_rows);
    for (std::size_t r = 0; r < num_rows; ++r) {
      if (rows.Test(r)) continue;
      std::uint32_t c = 0;
      for (std::size_t w = 0; w < width; ++w) {
        c += static_cast<std::uint32_t>(
            __builtin_popcountll(sigma[r * width + w]));
      }
      // I(r) ∩ A ⊂ A is guaranteed: if it equaled A, r would be in R(A).
      FARMER_DCHECK(c < a_size);
      count[r] = c;
      maximal.push_back(static_cast<std::uint32_t>(r));
    }
    std::sort(maximal.begin(), maximal.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return count[a] > count[b];
              });
    std::size_t kept = 0;
    for (std::uint32_t r : maximal) {
      bool subsumed = false;
      for (std::size_t k = 0; k < kept && !subsumed; ++k) {
        subsumed = IsSubset(&sigma[r * width], &sigma[maximal[k] * width],
                            width);
      }
      if (!subsumed) maximal[kept++] = r;
    }
    maximal.resize(kept);
  }

  // Step 3: incremental update of Γ per added closed set (Lemma 3.10).
  SetList& next = arena->next;
  SetList& gamma1 = arena->gamma1;
  for (std::uint32_t r : maximal) {
    // One update step can be combinatorially heavy (Γ1 × missing
    // candidates), so each one re-samples the deadline unthrottled:
    // this is the checkpoint that keeps a near-deadline mining run from
    // overshooting inside a long MineLB call.
    if (deadline != nullptr && deadline->ExpiredNow()) {
      result.timed_out = result.truncated = true;
      break;
    }
    const Word* a_prime = &sigma[r * width];
    // Γ1: the bounds contained in A'. The rest, Γ2, survive as-is and
    // open the next Γ.
    next.Reset(width);
    gamma1.Reset(width);
    for (std::size_t i = 0; i < gamma.size(); ++i) {
      (IsSubset(gamma[i], a_prime, width) ? gamma1 : next).Push(gamma[i]);
    }
    if (gamma1.size() == 0) continue;
    const std::size_t num_kept = next.size();

    std::vector<std::uint32_t>& missing = arena->missing;  // A − A'
    missing.clear();
    for (std::size_t p = 0; p < a_size; ++p) {
      if (!TestBit(a_prime, p)) {
        missing.push_back(static_cast<std::uint32_t>(p));
      }
    }
    bool cut = max_candidates != 0 &&
               gamma1.size() * missing.size() > max_candidates;

    // Candidates l1 ∪ {p}, l1 ∈ Γ1, p ∈ A − A'. Γ is an antichain and
    // p ∉ l1 ⊆ A', so the candidates are distinct and pairwise
    // incomparable: one is dropped only when it covers a surviving
    // bound of Γ2.
    for (std::size_t m = 0; m < missing.size() && !cut; ++m) {
      const std::uint32_t p = missing[m];
      for (std::size_t i = 0; i < gamma1.size(); ++i) {
        // Candidate filtering is quadratic in the candidate count; the
        // throttled per-candidate check bounds the overshoot of this one
        // loop. Γ1 was only copied into the candidates, so the cap-style
        // recovery below (Γ := Γ2 ∪ Γ1) stays available.
        if (deadline != nullptr && deadline->Expired()) {
          result.timed_out = cut = true;
          break;
        }
        next.Push(gamma1[i]);
        Word* c = next.back();
        c[p >> 6] |= kOne << (p & 63);
        for (std::size_t j = 0; j < num_kept; ++j) {
          if (IsSubset(next[j], c, width)) {
            next.Truncate(next.size() - 1);
            break;
          }
        }
      }
    }
    if (cut) {
      result.truncated = true;
      next.Truncate(num_kept);
      for (std::size_t i = 0; i < gamma1.size(); ++i) next.Push(gamma1[i]);
      std::swap(gamma, next);
      break;
    }
    std::swap(gamma, next);
  }

  // Convert local positions back to global item ids.
  result.lower_bounds.resize(gamma.size());
  for (std::size_t i = 0; i < gamma.size(); ++i) {
    ItemVector& items = result.lower_bounds[i];
    const Word* set = gamma[i];
    for (std::size_t w = 0; w < width; ++w) {
      for (Word bits = set[w]; bits != 0; bits &= bits - 1) {
        items.push_back(antecedent[w * 64 + __builtin_ctzll(bits)]);
      }
    }
  }
  std::sort(result.lower_bounds.begin(), result.lower_bounds.end());
  return result;
}

LowerBoundResult MineLowerBounds(const BinaryDataset& dataset,
                                 const ItemVector& antecedent,
                                 const Bitset& rows,
                                 std::size_t max_candidates,
                                 const Deadline* deadline) {
  // Each item's tuple: every row of R(A) holds all of A, and each other
  // row is binary-searched for A's items. An antecedent is usually far
  // shorter than a row (microarray rows hold one item per gene), so this
  // beats a merge over the whole row.
  std::vector<Bitset> tuples(antecedent.size(), rows);
  for (RowId r = 0; r < dataset.num_rows(); ++r) {
    if (rows.Test(r)) continue;
    const ItemVector& row = dataset.row(r);
    auto it = row.begin();
    for (std::size_t p = 0; p < antecedent.size() && it != row.end(); ++p) {
      it = std::lower_bound(it, row.end(), antecedent[p]);
      if (it != row.end() && *it == antecedent[p]) tuples[p].Set(r);
    }
  }
  std::vector<const Bitset*> item_rows;
  item_rows.reserve(tuples.size());
  for (const Bitset& t : tuples) item_rows.push_back(&t);
  MineLbArena arena;
  return MineLowerBoundsFromTidsets(antecedent, item_rows.data(), rows,
                                    max_candidates, deadline, &arena);
}

Status ValidateLowerBounds(const BinaryDataset& dataset,
                           const ItemVector& antecedent, const Bitset& rows,
                           const std::vector<ItemVector>& lower_bounds) {
  for (const ItemVector& lb : lower_bounds) {
    if (lb.empty()) return Status::InvalidArgument("empty lower bound");
    if (!std::includes(antecedent.begin(), antecedent.end(), lb.begin(),
                       lb.end())) {
      return Status::InvalidArgument(
          "lower bound is not a subset of the antecedent");
    }
    // Generator: L must select exactly the group's rows.
    if (SupportRows(dataset, lb) != rows) {
      return Status::InvalidArgument(
          "lower bound does not generate the group's row set");
    }
    // Minimal: dropping any one item must strictly enlarge the row set.
    for (std::size_t drop = 0; drop < lb.size(); ++drop) {
      ItemVector smaller;
      smaller.reserve(lb.size() - 1);
      for (std::size_t i = 0; i < lb.size(); ++i) {
        if (i != drop) smaller.push_back(lb[i]);
      }
      if (SupportRows(dataset, smaller) == rows) {
        return Status::InvalidArgument(
            "lower bound is not minimal: item " + std::to_string(lb[drop]) +
            " is redundant");
      }
    }
  }
  return Status::Ok();
}

}  // namespace farmer
