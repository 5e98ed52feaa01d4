//===- tests/DistanceTableTest.cpp - Distance-table tests ------------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "tables/DistanceTable.h"

#include "state/SearchState.h"
#include "support/Permutations.h"
#include "support/Rng.h"

#include <algorithm>
#include <gtest/gtest.h>

using namespace sks;

namespace {

TEST(DistanceTable, SortedRowsHaveDistanceZero) {
  Machine M(MachineKind::Cmov, 3);
  DistanceTable DT(M);
  uint32_t Sorted = M.packInitial({1, 2, 3});
  EXPECT_EQ(DT.dist(Sorted), 0u);
  EXPECT_EQ(DT.dist(Sorted | FlagLT), 0u);
  EXPECT_EQ(DT.dist(setReg(Sorted, 3, 2)), 0u) << "scratch is ignored";
}

TEST(DistanceTable, SingleAssignmentDistancesAreMovDistances) {
  // A lone assignment is sorted fastest by unconditional moves: cycle
  // structure determines the count (displaced elements + nontrivial
  // cycles, routing through the scratch register).
  Machine M(MachineKind::Cmov, 3);
  DistanceTable DT(M);
  // Transposition (2 1 3): 2 displaced + 1 cycle = 3 moves.
  EXPECT_EQ(DT.dist(M.packInitial({2, 1, 3})), 3u);
  // 3-cycle (2 3 1): r1:=? ... 3 displaced + 1 cycle = 4 moves.
  EXPECT_EQ(DT.dist(M.packInitial({2, 3, 1})), 4u);
  EXPECT_EQ(DT.dist(M.packInitial({3, 1, 2})), 4u);
  // Two fixed points short: (1 3 2) = transposition.
  EXPECT_EQ(DT.dist(M.packInitial({1, 3, 2})), 3u);
}

TEST(DistanceTable, ErasedValueIsUnreachable) {
  Machine M(MachineKind::Cmov, 3);
  DistanceTable DT(M);
  // Row (2, 2, 3) with scratch 0: the value 1 is gone.
  uint32_t Row = M.packInitial({2, 2, 3});
  EXPECT_EQ(DT.dist(Row), DistanceTable::Unreachable);
  // But with the 1 saved in scratch it is recoverable.
  EXPECT_LT(DT.dist(setReg(Row, 3, 1)), DistanceTable::Unreachable);
}

TEST(DistanceTable, DistanceDecreasesAlongSomeInstruction) {
  // Invariant: every reachable row with dist > 0 has a successor with
  // dist - 1 (BFS property), exercised across the whole n=3 space.
  Machine M(MachineKind::Cmov, 3);
  DistanceTable DT(M);
  for (const std::vector<int> &Perm : allPermutations(3)) {
    uint32_t Row = M.packInitial(Perm);
    while (DT.dist(Row) > 0) {
      ASSERT_NE(DT.dist(Row), DistanceTable::Unreachable);
      uint32_t Best = Row;
      for (const Instr &I : M.instructions()) {
        uint32_t Next = M.apply(Row, I);
        if (DT.dist(Next) + 1 == DT.dist(Row)) {
          Best = Next;
          break;
        }
      }
      ASSERT_NE(Best, Row) << "no improving instruction found";
      Row = Best;
    }
    EXPECT_TRUE(M.isSorted(Row));
  }
}

TEST(DistanceTable, MaxDistLowerBoundsKernelLength) {
  // Admissibility: the initial state's max distance must not exceed the
  // known optimal kernel lengths (11 for n=3, 20 for n=4).
  for (auto [N, Optimal] : {std::pair{3u, 11u}, {4u, 20u}}) {
    Machine M(MachineKind::Cmov, N);
    DistanceTable DT(M);
    SearchState S = initialState(M);
    EXPECT_LE(DT.maxDist(S.Rows), Optimal);
    EXPECT_GT(DT.maxDist(S.Rows), 0u);
  }
}

TEST(DistanceTable, MinMaxMachineTable) {
  Machine M(MachineKind::MinMax, 3);
  DistanceTable DT(M);
  EXPECT_EQ(DT.dist(M.packInitial({1, 2, 3})), 0u);
  uint32_t Row = M.packInitial({3, 2, 1});
  uint8_t D = DT.dist(Row);
  EXPECT_GT(D, 0u);
  EXPECT_NE(D, DistanceTable::Unreachable);
  // min/max cannot recover an erased value either.
  EXPECT_EQ(DT.dist(M.packInitial({2, 2, 3})), DistanceTable::Unreachable);
}

TEST(DistanceTable, MaxDistOfUnreachableRowIsUnreachable) {
  Machine M(MachineKind::Cmov, 3);
  DistanceTable DT(M);
  std::vector<uint32_t> Rows = {M.packInitial({1, 2, 3}),
                                M.packInitial({2, 2, 3})};
  EXPECT_EQ(DT.maxDist(Rows), DistanceTable::Unreachable);
}

/// Every row of \p M's single-assignment space: each register 0..n, and
/// the three flag states on machines with flags.
std::vector<uint32_t> allAssignments(const Machine &M) {
  std::vector<uint32_t> Rows = {0};
  for (unsigned Reg = 0; Reg != M.numRegs(); ++Reg) {
    std::vector<uint32_t> Next;
    for (uint32_t Row : Rows)
      for (uint32_t V = 0; V != M.numValues(); ++V)
        Next.push_back(setReg(Row, Reg, V));
    Rows.swap(Next);
  }
  if (M.kind() == MachineKind::MinMax)
    return Rows;
  std::vector<uint32_t> Flagged;
  for (uint32_t Row : Rows)
    for (uint32_t F : {0u, FlagLT, FlagGT})
      Flagged.push_back(Row | F);
  return Flagged;
}

/// The successor rows against the scalar definition over the whole
/// single-assignment space: byte k of a reachable row is
/// dist(M.apply(row, I_k)); an unreachable row reads all-Unreachable, and
/// (the soundness of sharing that row) each of its children is
/// unreachable too. Padding bytes read Unreachable.
void checkSuccessorRows(const Machine &M) {
  SCOPED_TRACE(testing::Message()
               << "kind=" << static_cast<int>(M.kind()) << " n="
               << M.numData() << " goal=" << M.goal().name());
  DistanceTable DT(M);
  const std::vector<Instr> &Instrs = M.instructions();
  const size_t Stride = DT.successorStride();
  ASSERT_EQ(Stride % 16, 0u);
  ASSERT_GE(Stride, Instrs.size());
  ASSERT_LT(Stride, Instrs.size() + 16);
  ASSERT_LE(Stride, DistanceTable::kMaxStride);
  size_t Reachable = 0;
  for (uint32_t Row : allAssignments(M)) {
    const uint8_t *Succ = DT.successors(Row);
    const bool Dead = DT.dist(Row) == DistanceTable::Unreachable;
    Reachable += !Dead;
    for (size_t K = 0; K != Instrs.size(); ++K) {
      const uint8_t Child = DT.dist(M.apply(Row, Instrs[K]));
      if (Dead) {
        ASSERT_EQ(Succ[K], DistanceTable::Unreachable) << "row " << Row;
        ASSERT_EQ(Child, DistanceTable::Unreachable)
            << "a child of dead row " << Row << " is live";
      } else {
        ASSERT_EQ(Succ[K], Child) << "row " << Row << " k " << K;
      }
    }
    for (size_t K = Instrs.size(); K != Stride; ++K)
      ASSERT_EQ(Succ[K], DistanceTable::Unreachable) << "padding";
  }
  EXPECT_EQ(Reachable, DT.numReachable());
}

TEST(DistanceTable, SuccessorRowsMatchApplyCmov) {
  for (unsigned N = 2; N <= 5; ++N)
    checkSuccessorRows(Machine(MachineKind::Cmov, N));
}

TEST(DistanceTable, SuccessorRowsMatchApplyMinMax) {
  for (unsigned N = 3; N <= 5; ++N)
    checkSuccessorRows(Machine(MachineKind::MinMax, N));
}

TEST(DistanceTable, SuccessorRowsMatchApplyHybrid) {
  checkSuccessorRows(Machine(MachineKind::Hybrid, 3));
}

TEST(DistanceTable, SuccessorRowsMatchApplyGoals) {
  for (GoalSpec Goal :
       {GoalSpec::selectK(1), GoalSpec::topK(2), GoalSpec::partialSort(1)}) {
    checkSuccessorRows(Machine(MachineKind::Cmov, 4, 1, Goal));
    checkSuccessorRows(Machine(MachineKind::MinMax, 5, 1, Goal));
  }
}

TEST(DistanceTable, ReachableCountsAndStrides) {
  // (n+1)! * (1 + n/2) files of n+1 registers hold every value 1..n
  // (the spare register holds 0 or repeats one value), times three flag
  // states on the cmov machine.
  Machine M3(MachineKind::Cmov, 3), M5(MachineKind::Cmov, 5);
  DistanceTable DT3(M3), DT5(M5);
  EXPECT_EQ(DT3.numReachable(), 180u);
  EXPECT_EQ(DT3.successorStride(), 48u); // 42 instructions.
  EXPECT_EQ(DT5.numReachable(), 7560u);
  EXPECT_EQ(DT5.successorStride(), 112u); // 105 instructions.
}

TEST(DistanceTable, FoldSuccessorsMatchesScalarReference) {
  // The per-node fold the search's action gate reads: Max[k] is the
  // children's maxDist and Optimal[k] the section 3.2 isOptimalAction,
  // over random row sets of real machines, dead rows included.
  for (auto [Kind, N] : {std::pair{MachineKind::Cmov, 3u},
                         {MachineKind::Cmov, 4u},
                         {MachineKind::MinMax, 4u},
                         {MachineKind::Hybrid, 3u}}) {
    Machine M(Kind, N);
    DistanceTable DT(M);
    SCOPED_TRACE(testing::Message() << "kind=" << static_cast<int>(Kind)
                                    << " n=" << N);
    std::vector<uint32_t> Space = allAssignments(M), Live;
    for (uint32_t Row : Space)
      if (DT.dist(Row) != DistanceTable::Unreachable)
        Live.push_back(Row);
    const std::vector<Instr> &Instrs = M.instructions();
    Rng R(77 + N);
    std::vector<uint8_t> Max(DT.successorStride()),
        Optimal(DT.successorStride());
    for (int Trial = 0; Trial != 200; ++Trial) {
      // 1..40 rows (past the fold's 32-row block), mostly live; every
      // tenth set carries one dead row.
      std::vector<uint32_t> Rows(1 + R.below(40));
      for (uint32_t &Row : Rows)
        Row = Live[R.below(Live.size())];
      if (Trial % 10 == 0)
        Rows[R.below(Rows.size())] = Space[R.below(Space.size())];
      DT.foldSuccessors(Rows.data(), Rows.size(), Max.data(), Optimal.data());
      std::vector<uint32_t> Child(Rows.size());
      for (size_t K = 0; K != Instrs.size(); ++K) {
        for (size_t I = 0; I != Rows.size(); ++I)
          Child[I] = M.apply(Rows[I], Instrs[K]);
        ASSERT_EQ(Max[K], DT.maxDist(Child)) << "k " << K;
        ASSERT_EQ(Optimal[K] != 0,
                  DT.isOptimalAction(Rows.data(), Rows.size(), Instrs[K]))
            << "k " << K;
      }
    }
  }
}

} // namespace
