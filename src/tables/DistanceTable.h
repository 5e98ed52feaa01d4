//===- tables/DistanceTable.h - Exact per-assignment distances -*- C++ -*-===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper precomputes, for every single register assignment, the length
/// of the shortest program that sorts it (section 3.1, third heuristic).
/// Generalized over the machine's goal: the table stores the distance to
/// the nearest *accepting* assignment (machine/Goal.h), which for the sort
/// goal is exactly distance-to-sorted. This table powers three of the
/// search optimizations:
///
///  - an admissible A* heuristic: the maximum of the per-row distances in a
///    state lower-bounds the remaining program length;
///  - the viability check (section 3.3): a state in which some row cannot
///    be sorted within the remaining budget — including rows where a value
///    was erased, whose distance is infinite — can be pruned;
///  - the "optimal instructions" action filter (section 3.2): only expand
///    instructions that start an optimal completion for at least one row.
///
/// The table is computed by one backward breadth-first search from all
/// accepting assignments over the inverse transition relation, covering the
/// complete single-assignment space (values 0..n in each of the R
/// registers, times the three flag states for the cmov machine). Slots are
/// numbered densely in mixed radix n+1 (two small lookup tables turn the
/// packed-row bits into the slot), so a lookup is three loads.
///
/// Successor rows. For every reachable assignment the table also stores
/// dist(apply(row, I_k)) for each instruction I_k of M.instructions(), one
/// byte per instruction, padded to 16 bytes. The search decides viability
/// and the action filter for all of a node's actions from these rows before
/// applying any instruction (search/Expansion.h). Unreachable assignments
/// share one all-Unreachable row: the backward search generates every
/// forward edge, so a child of a dead row is dead.
///
//===----------------------------------------------------------------------===//

#ifndef SKS_TABLES_DISTANCETABLE_H
#define SKS_TABLES_DISTANCETABLE_H

#include "machine/Machine.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sks {

/// Exact distance-to-accepting for every single register assignment.
class DistanceTable {
public:
  /// Distance value for assignments from which no accepting state is
  /// reachable (e.g. a goal-required value was erased from all registers).
  static constexpr uint8_t Unreachable = 0xff;

  /// Builds the table with a backward BFS; cost is proportional to the
  /// single-assignment space, at most (n+1)^R * 3 states. The successor
  /// rows are then filled instruction-major over the reachable rows.
  /// For Hybrid machines the table is a sound (possibly slightly loose)
  /// lower bound: predecessor generation allows compares between any
  /// register pair, which only shrinks distances and therefore preserves
  /// admissibility of the heuristic and soundness of the viability check.
  explicit DistanceTable(const Machine &M);

  /// \returns the exact length of the shortest program taking \p Row to an
  /// accepting assignment, or Unreachable. Register values must be 0..n.
  uint8_t dist(uint32_t Row) const { return Dist[indexOf(Row)]; }

  /// \returns the maximum dist() over \p Rows[0..Len) — an admissible lower
  /// bound on the instructions still needed (Unreachable if any row is).
  uint8_t maxDist(const uint32_t *Rows, size_t Len) const {
    uint8_t Max = 0;
    for (size_t I = 0; I != Len; ++I) {
      uint8_t D = dist(Rows[I]);
      if (D == Unreachable)
        return Unreachable;
      if (D > Max)
        Max = D;
    }
    return Max;
  }
  uint8_t maxDist(const std::vector<uint32_t> &Rows) const {
    return maxDist(Rows.data(), Rows.size());
  }

  /// \returns true if instruction \p I makes optimal progress on at least
  /// one row of \p Rows, i.e. dist(apply(Row, I)) == dist(Row) - 1 (the
  /// section 3.2 action filter). The scalar reference of foldSuccessors'
  /// Optimal bytes.
  bool isOptimalAction(const uint32_t *Rows, size_t Len, Instr I) const {
    for (size_t R = 0; R != Len; ++R) {
      uint8_t Before = dist(Rows[R]);
      if (Before == 0 || Before == Unreachable)
        continue;
      if (dist(M.apply(Rows[R], I)) + 1 == Before)
        return true;
    }
    return false;
  }

  /// Upper bound on successorStride() for every machine the packed
  /// encoding admits (callers size stack buffers with it).
  static constexpr size_t kMaxStride = 256;

  /// Bytes per successor row: M.instructions().size() rounded up to 16.
  size_t successorStride() const { return Stride; }

  /// \returns the successor row of \p Row: byte k is
  /// dist(M.apply(Row, M.instructions()[k])); all Unreachable when \p Row
  /// is. successorStride() bytes; the padding reads Unreachable.
  const uint8_t *successors(uint32_t Row) const {
    return Succ.data() + size_t(SuccRow[indexOf(Row)]) * Stride;
  }

  /// Folds the successor rows of \p Rows[0..Len) into per-instruction
  /// verdicts, 16 instructions per SSE2 operation (scalar elsewhere):
  ///
  ///  - Max[k] = max over the rows of dist(apply(row, I_k)), the child's
  ///    maxDist(); Unreachable when some child row is;
  ///  - when \p Optimal is non-null, Optimal[k] != 0 exactly when
  ///    isOptimalAction(Rows, Len, I_k): some row with
  ///    0 < dist < Unreachable has a successor byte equal to dist - 1.
  ///
  /// Both buffers hold successorStride() bytes.
  void foldSuccessors(const uint32_t *Rows, size_t Len, uint8_t *Max,
                      uint8_t *Optimal) const;

  /// Number of reachable (finite-distance) assignments; exposed for tests.
  size_t numReachable() const { return Reachable; }

  /// Bytes held by the distance, slot and successor arrays.
  size_t bytesUsed() const {
    return Dist.size() + Succ.size() +
           (SlotLo.size() + SlotHi.size() + SuccRow.size()) * sizeof(uint32_t);
  }

private:
  /// Dense slot of \p Row: registers in mixed radix n+1 (registers 0..3
  /// through SlotLo, 4..7 through SlotHi), times the three flag states
  /// for machines with flags.
  size_t indexOf(uint32_t Row) const {
    return size_t(SlotLo[Row & 0xfffu]) + SlotHi[(Row >> 12) & 0xfffu] +
           ((Row >> 28) & 3u);
  }

  const Machine &M;
  bool HasFlags;
  size_t Reachable = 0;
  size_t Stride = 0;
  std::vector<uint32_t> SlotLo, SlotHi; ///< 4096 entries each.
  std::vector<uint8_t> Dist;
  /// Per slot: index of its successor row; 0 is the shared dead row.
  std::vector<uint32_t> SuccRow;
  std::vector<uint8_t> Succ;
};

} // namespace sks

#endif // SKS_TABLES_DISTANCETABLE_H
