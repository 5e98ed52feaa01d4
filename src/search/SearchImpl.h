//===- search/SearchImpl.h - Shared search internals -----------*- C++ -*-===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Internal helpers shared by the best-first and layered engines: heuristic
/// evaluation, the section 3.5 cut tracker, and fast distinct-count
/// utilities on packed row vectors. Not part of the public API.
///
//===----------------------------------------------------------------------===//

#ifndef SKS_SEARCH_SEARCHIMPL_H
#define SKS_SEARCH_SEARCHIMPL_H

#include "search/Search.h"
#include "state/Canonicalize.h"

#include <algorithm>
#include <cmath>

namespace sks {
namespace detail {

/// Counts distinct values of Row & Mask using a caller-provided scratch
/// buffer (row vectors are at most n! long). Sorting goes through the
/// vectorized sortRows primitive — masked rows keep the sign bit clear.
inline unsigned countDistinctMasked(const uint32_t *Rows, size_t Len,
                                    uint32_t Mask,
                                    std::vector<uint32_t> &Scratch) {
  Scratch.resize(Len);
  for (size_t I = 0; I != Len; ++I)
    Scratch[I] = Rows[I] & Mask;
  sortRows(Scratch.data(), static_cast<uint32_t>(Len));
  unsigned Count = 0;
  for (size_t I = 0; I != Len; ++I)
    if (I == 0 || Scratch[I] != Scratch[I - 1])
      ++Count;
  return Count;
}
inline unsigned countDistinctMasked(const std::vector<uint32_t> &Rows,
                                    uint32_t Mask,
                                    std::vector<uint32_t> &Scratch) {
  return countDistinctMasked(Rows.data(), Rows.size(), Mask, Scratch);
}

/// Goal-aware permutation count: distinct data-register projections, with
/// every *accepting* projection collapsed into one bucket — rows that
/// already satisfy the goal need no further discrimination, so counting
/// them apart would overstate the remaining work and weaken the section
/// 3.5 cut. The collapse target is the goal pattern itself (pinned
/// registers at their required values, all other data bits 0), which is an
/// accepting projection, so the collapse never merges an accepting bucket
/// with a non-accepting one. For the sort goal a projection is accepting
/// only when it *is* the sorted row, making the collapse the identity; we
/// take the plain countDistinctMasked path so the sort behaviour stays
/// byte-identical.
inline unsigned countDistinctGoal(const uint32_t *Rows, size_t Len,
                                  const Machine &M,
                                  std::vector<uint32_t> &Scratch) {
  if (M.goal().isSort())
    return countDistinctMasked(Rows, Len, M.dataMask(), Scratch);
  const uint32_t DataMask = M.dataMask();
  const uint32_t GoalMask = M.goalMask(), GoalPattern = M.goalPattern();
  Scratch.resize(Len);
  for (size_t I = 0; I != Len; ++I) {
    uint32_t Proj = Rows[I] & DataMask;
    if ((Proj & GoalMask) == GoalPattern)
      Proj = GoalPattern;
    Scratch[I] = Proj;
  }
  sortRows(Scratch.data(), static_cast<uint32_t>(Len));
  unsigned Count = 0;
  for (size_t I = 0; I != Len; ++I)
    if (I == 0 || Scratch[I] != Scratch[I - 1])
      ++Count;
  return Count;
}
inline unsigned countDistinctGoal(const std::vector<uint32_t> &Rows,
                                  const Machine &M,
                                  std::vector<uint32_t> &Scratch) {
  return countDistinctGoal(Rows.data(), Rows.size(), M, Scratch);
}

/// Evaluates the configured section 3.1 heuristic.
class HeuristicEval {
public:
  HeuristicEval(const Machine &M, const SearchOptions &Opts,
                const DistanceTable *DT)
      : M(M), DT(DT), Kind(Opts.Heuristic) {}

  double operator()(const uint32_t *Rows, size_t Len,
                    std::vector<uint32_t> &Scratch) const {
    switch (Kind) {
    case HeuristicKind::None:
      return 0;
    case HeuristicKind::PermCount:
      return countDistinctGoal(Rows, Len, M, Scratch) - 1;
    case HeuristicKind::AssignCount:
      return countDistinctMasked(Rows, Len, M.regMask(), Scratch) - 1;
    case HeuristicKind::NeededInstrs:
      return DT->maxDist(Rows, Len);
    }
    return 0;
  }
  double operator()(const std::vector<uint32_t> &Rows,
                    std::vector<uint32_t> &Scratch) const {
    return (*this)(Rows.data(), Rows.size(), Scratch);
  }

private:
  const Machine &M;
  const DistanceTable *DT;
  HeuristicKind Kind;
};

/// Tracks the per-length minimum distinct-permutation count and implements
/// the section 3.5 discard test: a state of length L is discarded when its
/// permutation count exceeds the cut bound derived from the best state of
/// length L-1.
class CutTracker {
public:
  CutTracker(const CutConfig &Cut, unsigned MaxLength)
      : Cut(Cut), MinPerm(MaxLength + 2, 0) {}

  /// Records a surviving state of length \p Length.
  void observe(unsigned Length, unsigned PermCount) {
    unsigned &Slot = MinPerm[Length];
    if (Slot == 0 || PermCount < Slot)
      Slot = PermCount;
  }

  /// \returns true if a state of length \p Length with \p PermCount
  /// distinct permutations should be discarded.
  bool shouldCut(unsigned Length, unsigned PermCount) const {
    if (Cut.Mode == CutConfig::Kind::None || Length == 0)
      return false;
    unsigned PrevMin = MinPerm[Length - 1];
    if (PrevMin == 0)
      return false; // No state of the previous length recorded yet.
    if (Cut.Mode == CutConfig::Kind::Multiplicative)
      return static_cast<double>(PermCount) > Cut.Factor * PrevMin;
    return PermCount > PrevMin + Cut.Offset;
  }

private:
  CutConfig Cut;
  std::vector<unsigned> MinPerm;
};

SearchResult bestFirstSearch(const Machine &M, const SearchOptions &Opts,
                             const DistanceTable *DT);
SearchResult layeredSearch(const Machine &M, const SearchOptions &Opts,
                           const DistanceTable *DT);

} // namespace detail
} // namespace sks

#endif // SKS_SEARCH_SEARCHIMPL_H
