//===- tests/SearchExtrasTest.cpp - Engine knobs and instrumentation ---------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "search/Search.h"

#include "verify/Verify.h"

#include <gtest/gtest.h>

using namespace sks;

namespace {

TEST(SearchExtras, EraseCheckPreservesSolutionCounts) {
  // The value-erasure check (section 3.3's always-on half) is the only
  // viability pruning left once the distance-table check is off. It prunes
  // only states that cannot reach a sorted state, so the exhaustive n=2
  // enumeration still counts the pinned 8 optimal kernels while the check
  // refuses candidates.
  Machine M(MachineKind::Cmov, 2);
  SearchOptions Opts;
  Opts.Heuristic = HeuristicKind::None;
  Opts.FindAll = true;
  Opts.MaxLength = 4;
  Opts.MaxSolutionsKept = 0;
  Opts.UseViability = false;
  SearchResult R = synthesize(M, Opts);
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.OptimalLength, 4u);
  EXPECT_EQ(R.SolutionCount, 8u);
  EXPECT_GT(R.Stats.ViabilityPruned, 0u) << "the check must actually prune";
}

TEST(SearchExtras, MaxStatesAbortsGracefully) {
  Machine M(MachineKind::Cmov, 4);
  SearchOptions Opts;
  Opts.Heuristic = HeuristicKind::None;
  Opts.UseViability = false;
  Opts.MaxLength = 20;
  Opts.MaxStates = 5000;
  SearchResult R = synthesize(M, Opts);
  EXPECT_FALSE(R.Found);
  EXPECT_TRUE(R.Stats.TimedOut);
  EXPECT_TRUE(R.Stats.MemoryLimited);

  Opts.Layered = true;
  R = synthesize(M, Opts);
  EXPECT_FALSE(R.Found);
  EXPECT_TRUE(R.Stats.MemoryLimited);
}

TEST(SearchExtras, TraceIsMonotoneInTime) {
  Machine M(MachineKind::Cmov, 4);
  SearchOptions Opts;
  Opts.Heuristic = HeuristicKind::None;
  Opts.FindAll = true;
  Opts.UseViability = true;
  Opts.Cut = CutConfig::mult(1.0);
  Opts.MaxLength = 20;
  Opts.MaxSolutionsKept = 0;
  Opts.TraceIntervalSeconds = 0.01;
  Opts.TimeoutSeconds = 300;
  SearchResult R = synthesize(M, Opts);
  ASSERT_TRUE(R.Found);
  ASSERT_FALSE(R.Trace.empty());
  for (size_t I = 1; I < R.Trace.size(); ++I)
    EXPECT_LE(R.Trace[I - 1].Seconds, R.Trace[I].Seconds);
  // The final trace point carries the final solution count.
  EXPECT_EQ(R.Trace.back().SolutionsFound, R.SolutionCount);
  EXPECT_GT(R.SolutionCount, 0u);
}

TEST(SearchExtras, SharedDistanceTableGivesIdenticalResults) {
  Machine M(MachineKind::Cmov, 3);
  DistanceTable DT(M);
  SearchOptions Opts;
  Opts.Heuristic = HeuristicKind::PermCount;
  Opts.UseViability = true;
  Opts.Cut = CutConfig::mult(1.0);
  Opts.MaxLength = 12;
  SearchResult Shared = synthesize(M, Opts, &DT);
  SearchResult Owned = synthesize(M, Opts);
  ASSERT_TRUE(Shared.Found && Owned.Found);
  EXPECT_EQ(Shared.OptimalLength, Owned.OptimalLength);
  EXPECT_EQ(Shared.Stats.StatesExpanded, Owned.Stats.StatesExpanded);
  EXPECT_EQ(Shared.Solutions.front(), Owned.Solutions.front())
      << "the search is deterministic";
}

TEST(SearchExtras, AdditiveCutBehaves) {
  Machine M(MachineKind::Cmov, 3);
  SearchOptions Opts;
  Opts.Heuristic = HeuristicKind::None;
  Opts.FindAll = true;
  Opts.MaxLength = 11;
  Opts.MaxSolutionsKept = 0;
  Opts.Cut = CutConfig::add(100); // Effectively no cut.
  SearchResult Loose = synthesize(M, Opts);
  Opts.Cut = CutConfig::add(0); // Strictest additive cut.
  SearchResult Tight = synthesize(M, Opts);
  ASSERT_TRUE(Loose.Found);
  EXPECT_EQ(Loose.SolutionCount, 5602u);
  if (Tight.Found) {
    EXPECT_LE(Tight.SolutionCount, Loose.SolutionCount);
  }
}

TEST(SearchExtras, MinMaxLayeredCountsAreStable) {
  // Regression: the min/max machine's full n=3 solution count at the
  // optimal length 8 under this model.
  Machine M(MachineKind::MinMax, 3);
  SearchOptions Opts;
  Opts.Heuristic = HeuristicKind::None;
  Opts.FindAll = true;
  Opts.MaxLength = 8;
  Opts.MaxSolutionsKept = 1 << 20;
  SearchResult R = synthesize(M, Opts);
  ASSERT_TRUE(R.Found);
  EXPECT_GT(R.SolutionCount, 0u);
  EXPECT_EQ(R.SolutionCount, R.Solutions.size());
  for (const Program &P : R.Solutions)
    ASSERT_TRUE(isCorrectKernel(M, P));
}

} // namespace
