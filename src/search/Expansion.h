//===- search/Expansion.h - The one candidate filter pipeline --*- C++ -*-===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single candidate pipeline shared by every expansion site: action
/// gate (section 3.2 filter -> syntactic prune -> section 3.3 viability)
/// -> apply -> erase check (only without a distance table) ->
/// distinct-permutation count (section 3.1) -> cut (section 3.5) ->
/// canonicalize -> hash. Three sites route through it:
///
///  - the best-first engine's expansion loop (BestFirst.cpp),
///  - the layered engine's node-major expansion (sequential and thread-pool
///    parallel), and
///  - the layered engine's instruction-major batch expansion (the GPU-style
///    data-parallel substitute),
///
/// so a filter is added in exactly one place and every site makes the same
/// decisions. Surviving candidates carry their rows in the batch's flat
/// buffer (no per-candidate allocation), and arrive pre-hashed so the
/// dedup/merge stage can shard by hash without touching the rows again.
///
/// Viability before apply: the gate decides the section 3.3 check for all
/// of a node's actions at once from the distance table's successor rows
/// (tables/DistanceTable.h). The bytewise max of the node's successor rows
/// is every child's maximal row distance, so one SSE2 max per 16
/// instructions per row replaces applying each instruction and probing the
/// table per child row. On the n = 3 find-all run ~88% of the generated
/// candidates fail this check; they are now never applied, sorted or
/// hashed. The same fold answers the section 3.2 filter.
///
/// The admitted candidates go through the vectorized applyBatch, and the
/// remaining verdict stages (perm count, cut) read the RAW transformed rows
/// — their results are order- and duplicate-independent — so the canonical
/// sort (the sorting-network sortRows primitive, state/Canonicalize.h) and
/// duplicate compaction run only for the candidates that survive to be
/// stored.
///
/// Opt-in stage timers (SearchOptions::ProfilePipeline) attribute the work
/// to SearchStats::{Apply,Canon,Viability}Nanos: Viability is the gate's
/// successor-row fold (or the erase check without a table), Apply the
/// batched transform, Canon the sort + perm count + hash.
///
//===----------------------------------------------------------------------===//

#ifndef SKS_SEARCH_EXPANSION_H
#define SKS_SEARCH_EXPANSION_H

#include "lint/PrefixLint.h"
#include "machine/BatchApply.h"
#include "search/SearchImpl.h"
#include "state/Canonicalize.h"
#include "state/StateStore.h"
#include "support/Hashing.h"
#include "support/Timing.h"

namespace sks {
namespace detail {

/// A child candidate that survived the filter pipeline, before dedup. Rows
/// live in the producing CandidateBatch's flat buffer.
struct Candidate {
  uint32_t RowOffset;
  uint32_t RowLen;
  uint32_t Parent; ///< Node index in the parent level / arena.
  Instr Via;
  uint32_t Perm; ///< Distinct-permutation count (for CutTracker::observe).
  uint64_t Hash; ///< hashWords of the canonical rows (shard selector).
  PrefixLint Lint;
  /// Max per-row distance-table value (the section 3.1 admissible bound),
  /// read off the gate's successor-row fold; 0 when viability runs without
  /// a distance table. Lets the best-first engine price surviving
  /// candidates without a second row traversal.
  uint8_t Needed = 0;
};

/// One action the gate admitted: the instruction's index in
/// M.instructions() and the child's Candidate::Needed.
struct Action {
  uint16_t K;
  uint8_t Needed;
};

/// One expansion worker's output: candidates plus their flat row storage.
struct CandidateBatch {
  std::vector<uint32_t> Rows;
  std::vector<Candidate> List;
  std::vector<uint32_t> Scratch; ///< For the masked distinct-count sort.

  const uint32_t *rowsOf(const Candidate &C) const {
    return Rows.data() + C.RowOffset;
  }

  void clear() {
    Rows.clear();
    List.clear();
  }

  /// Pre-sizes the buffers from the previous level's branching factor so
  /// the hot loop rarely reallocates. The estimate can overshoot many-fold
  /// (on the n = 3 find-all run's last level, 11.3 candidates per node
  /// against 0.38 produced); the pages past what the batch writes are
  /// never touched.
  void reserveFor(size_t ExpectedCandidates, size_t RowsPerState) {
    List.reserve(ExpectedCandidates);
    Rows.reserve(ExpectedCandidates * RowsPerState);
  }

  /// Bytes the batch has written — the memory it holds. Reserved capacity
  /// beyond that is untouched address space, so it is not charged.
  size_t bytesUsed() const {
    return Rows.size() * sizeof(uint32_t) + List.size() * sizeof(Candidate);
  }
};

/// The shared filter pipeline. Stateless apart from configuration
/// references, so one instance serves any number of worker threads (the
/// CutTracker is only read here; observe() happens at merge/insert time).
class CandidatePipeline {
public:
  CandidatePipeline(const Machine &M, const SearchOptions &Opts,
                    const DistanceTable *DT, const CutTracker &Cuts)
      : M(M), Alphabet(M.instructions()), Opts(Opts), DT(DT), Cuts(Cuts),
        Profile(Opts.ProfilePipeline), UseDT(Opts.UseViability && DT),
        Filter(Opts.UseActionFilter && DT), DataMask(M.dataMask()),
        NumRegs(M.numRegs()), FullValueMask(M.requiredValueMask()),
        GoalCollapse(!M.goal().isSort()) {}

  /// The one action gate of every expansion site. It decides every action
  /// of the node in \p Rows before any instruction is applied, walking
  /// M.instructions() in order; an instruction must pass
  ///
  ///  1. the section 3.2 filter (UseActionFilter): a cmp is kept while its
  ///     register pair is unresolved (both orders occur among the rows,
  ///     the only case in which its flags discriminate inputs); any other
  ///     instruction while it makes optimal per-assignment progress on some
  ///     row. Comparisons never lie on a shortest single-assignment
  ///     program, so the literal per-assignment rule would dead-end the
  ///     search;
  ///  2. the syntactic prune, which refuses every instruction the prefix
  ///     summary proves would plant a dead instruction (lint/PrefixLint.h).
  ///     Sound and optimal-count-preserving: a minimal kernel never
  ///     contains a dead instruction;
  ///  3. the section 3.3 viability check (UseViability with a table): every
  ///     child row reaches the goal within the length bound.
  ///
  /// Steps 1 and 3 read one fold of the node's successor rows
  /// (DistanceTable::foldSuccessors). Every instruction past step 2 counts
  /// once in StatesGenerated, and once more in ViabilityPruned when step 3
  /// refuses it. Appends the admitted actions to \p Out, in alphabet
  /// order.
  void gateActions(const uint32_t *Rows, uint32_t Len, const PrefixLint &Lint,
                   unsigned ChildG, std::vector<Action> &Out,
                   SearchStats &Stats) const {
    // foldSuccessors fills the first successorStride() bytes, which cover
    // every index the loop below reads.
    alignas(16) uint8_t Max[DistanceTable::kMaxStride];
    alignas(16) uint8_t Optimal[DistanceTable::kMaxStride];
    if (UseDT || Filter) {
      ScopedNanoTimer T(Profile, Stats.ViabilityNanos);
      DT->foldSuccessors(Rows, Len, Max, Filter ? Optimal : nullptr);
    }
    size_t Filtered = 0, Linted = 0, Generated = 0, Dead = 0;
    for (size_t K = 0; K != Alphabet.size(); ++K) {
      const Instr I = Alphabet[K];
      if (Filter && !(I.Op == Opcode::Cmp ? pairUnresolved(Rows, Len, I)
                                          : Optimal[K] != 0)) {
        ++Filtered;
        continue;
      }
      if (Lint.killsPrefix(I)) {
        ++Linted;
        continue;
      }
      ++Generated;
      uint8_t Needed = 0;
      if (UseDT) {
        Needed = Max[K];
        if (Needed == DistanceTable::Unreachable ||
            ChildG + Needed > Opts.MaxLength) {
          ++Dead;
          continue;
        }
      }
      Out.push_back(Action{static_cast<uint16_t>(K), Needed});
    }
    Stats.ActionsFiltered += Filtered;
    Stats.SyntacticPruned += Linted;
    Stats.StatesGenerated += Generated;
    Stats.ViabilityPruned += Dead;
  }

  /// Runs the post-apply stages on the raw transformed rows of an admitted
  /// action, which the caller appended at B.Rows[RawBegin..]: the erase
  /// check when there is no distance table, perm-count, cut, then the
  /// canonical sort and hash. \p Needed is the gate's Action::Needed.
  /// Records a Candidate on survival; truncates the tail otherwise.
  /// \returns true when the candidate survived.
  bool finish(CandidateBatch &B, size_t RawBegin, unsigned ChildG,
              uint32_t Parent, Instr Via, uint8_t Needed,
              const PrefixLint &ParentLint, SearchStats &Stats) const {
    uint32_t *Rows = B.Rows.data() + RawBegin;
    const uint32_t RawLen = static_cast<uint32_t>(B.Rows.size() - RawBegin);

    // The OR of all row bits decides whether the perm count needs a
    // masked projection. Without a distance table the section 3.3 check
    // falls back to value erasure, a per-row fact read on the raw rows.
    uint32_t OrAll = 0;
    if (UseDT) {
      for (uint32_t I = 0; I != RawLen; ++I)
        OrAll |= Rows[I];
    } else {
      ScopedNanoTimer T(Profile, Stats.ViabilityNanos);
      for (uint32_t I = 0; I != RawLen; ++I) {
        if (!rowKeepsAllValues(Rows[I])) {
          ++Stats.ViabilityPruned;
          B.Rows.resize(RawBegin);
          return false;
        }
        OrAll |= Rows[I];
      }
    }

    // Perm count and the section 3.5 cut, still before the sort when some
    // row carries flag or scratch bits: the masked projection sorts its
    // own scratch copy and duplicates cannot change a DISTINCT count, so
    // raw rows give the same Perm the old sorted-first pipeline computed —
    // and a cut candidate skips the canonical sort too. When every row is
    // pure data the projection is the identity, Perm is the number of
    // distinct rows, and the compaction below yields it for free. Non-sort
    // goals always take the projection path: countDistinctGoal collapses
    // accepting projections into one bucket, which the compaction shortcut
    // cannot reproduce.
    const bool NeedsProjection = GoalCollapse || (OrAll & ~DataMask) != 0;
    uint32_t Perm = 0;
    if (NeedsProjection) {
      {
        ScopedNanoTimer T(Profile, Stats.CanonNanos);
        Perm = countDistinctGoal(Rows, RawLen, M, B.Scratch);
      }
      if (Cuts.shouldCut(ChildG, Perm)) {
        ++Stats.CutStates;
        B.Rows.resize(RawBegin);
        return false;
      }
    }

    // Canonical order + duplicate compaction — now run only for the
    // survivors. A single row (common near the goal) is trivially
    // canonical.
    uint32_t Len = RawLen;
    {
      ScopedNanoTimer T(Profile, Stats.CanonNanos);
      if (RawLen > 1) {
        sortRows(Rows, RawLen);
        Len = 0;
        for (uint32_t I = 0; I != RawLen; ++I)
          if (I == 0 || Rows[I] != Rows[Len - 1])
            Rows[Len++] = Rows[I];
      }
    }
    B.Rows.resize(RawBegin + Len); // Drop the compacted duplicates' tail.
    if (!NeedsProjection) {
      Perm = Len;
      if (Cuts.shouldCut(ChildG, Perm)) {
        ++Stats.CutStates;
        B.Rows.resize(RawBegin);
        return false;
      }
    }

    Candidate C;
    C.RowOffset = static_cast<uint32_t>(RawBegin);
    C.RowLen = Len;
    C.Parent = Parent;
    C.Via = Via;
    C.Perm = Perm;
    C.Needed = Needed;
    {
      ScopedNanoTimer T(Profile, Stats.CanonNanos);
      uint64_t H = kHashWordsSeed;
      for (uint32_t I = 0; I != Len; ++I)
        H = hashCombine(H, Rows[I]);
      C.Hash = hashWordsFinish(H, Len);
    }
    C.Lint = ParentLint.extended(Via);
    B.List.push_back(C);
    return true;
  }

  /// Node-major expansion: gates the actions, applies each admitted one to
  /// \p Rows with the data-parallel applyBatch, and runs the pipeline — the
  /// best-first and layered node-major path. \p Rows must not alias B.Rows
  /// (all callers pass arena storage); \p Actions is a work buffer.
  void expandNode(const uint32_t *Rows, uint32_t Len, const PrefixLint &Lint,
                  uint32_t Parent, unsigned ChildG, CandidateBatch &B,
                  std::vector<Action> &Actions, SearchStats &Stats) const {
    Actions.clear();
    gateActions(Rows, Len, Lint, ChildG, Actions, Stats);
    for (const Action &A : Actions) {
      const Instr I = Alphabet[A.K];
      size_t RawBegin = B.Rows.size();
      {
        ScopedNanoTimer T(Profile, Stats.ApplyNanos);
        B.Rows.resize(RawBegin + Len);
        applyBatch(M, I, Rows, B.Rows.data() + RawBegin, Len);
      }
      finish(B, RawBegin, ChildG, Parent, I, A.Needed, Lint, Stats);
    }
  }

private:
  /// The section 3.2 cmp rule: true when both orders of the compared
  /// register pair occur among \p Rows.
  static bool pairUnresolved(const uint32_t *Rows, uint32_t Len, Instr I) {
    bool SeenLess = false, SeenGreater = false;
    for (uint32_t R = 0; R != Len; ++R) {
      uint32_t A = getReg(Rows[R], I.Dst), B = getReg(Rows[R], I.Src);
      SeenLess |= A < B;
      SeenGreater |= A > B;
      if (SeenLess && SeenGreater)
        return true;
    }
    return false;
  }

  /// The section 3.3 erase check, per row: true when every goal-required
  /// value (all of 1..n for the sort goal) still occurs in some register
  /// of \p Row.
  bool rowKeepsAllValues(uint32_t Row) const {
    uint32_t Present = 0;
    for (unsigned Reg = 0; Reg != NumRegs; ++Reg) {
      Present |= 1u << (Row & 7u);
      Row >>= 3;
    }
    return (Present & FullValueMask) == FullValueMask;
  }

  const Machine &M;
  const std::vector<Instr> &Alphabet;
  const SearchOptions &Opts;
  const DistanceTable *DT;
  const CutTracker &Cuts;
  const bool Profile;
  /// Viability reads the distance table (UseViability with a table).
  const bool UseDT;
  /// The section 3.2 action filter is on (UseActionFilter with a table).
  const bool Filter;
  const uint32_t DataMask;
  const unsigned NumRegs;
  const uint32_t FullValueMask;
  /// True for non-sort goals: the perm count must collapse accepting
  /// projections, so the pure-data compaction shortcut is disabled.
  const bool GoalCollapse;
};

} // namespace detail
} // namespace sks

#endif // SKS_SEARCH_EXPANSION_H
