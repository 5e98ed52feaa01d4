//===- tests/EngineEquivalenceTest.cpp - Execution-mode equivalence --------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The layered engine has three execution modes — sequential node-major,
// thread-pool parallel, and instruction-major batch — that must be
// semantically indistinguishable: every mode passes each node through the
// same action gate, and the sharded merge (state/StateStore.h) folds
// per-shard sums and mins, both order-independent, so the per-level state
// counts, the solution DAG, the exact solution count, and the
// reconstructed kernel set are identical for any mode. These tests pin that
// equivalence on the full n=3 all-solutions experiment (5602 optimal
// kernels), on the n=3 cut-1 set (234 kernels), on the n=4 cut-1 DAG, and
// on the min/max machine. The n=3
// sequential run and the n=4 cut-1 run are each solved once per process
// and shared by every test that compares against them.
//
//===----------------------------------------------------------------------===//

#include "isa/Instr.h"
#include "search/Search.h"
#include "verify/Verify.h"

#include <algorithm>
#include <gtest/gtest.h>
#include <set>
#include <string>

using namespace sks;

namespace {

struct Mode {
  const char *Name;
  unsigned NumThreads;
  bool Batch;
};

constexpr Mode kModes[] = {
    {"sequential", 1, false},
    {"threads4", 4, false},
    {"batch", 1, true},
    {"batch+threads4", 4, true}, // Batch expansion, parallel merge.
};

SearchOptions findAllConfig(MachineKind Kind, unsigned N, const Mode &Mo) {
  SearchOptions Opts;
  Opts.Heuristic = HeuristicKind::PermCount;
  Opts.UseViability = true;
  Opts.Cut = CutConfig::none();
  Opts.FindAll = true;
  Opts.MaxLength = networkUpperBound(Kind, N);
  Opts.NumThreads = Mo.NumThreads;
  Opts.BatchExpansion = Mo.Batch;
  return Opts;
}

std::set<std::string> solutionSet(const Machine &M, const SearchResult &R) {
  std::set<std::string> Set;
  for (const Program &P : R.Solutions)
    Set.insert(toString(P, M.numData()));
  return Set;
}

/// The n=3 sequential all-solutions run (the 5602-kernel baseline).
const SearchResult &sequentialN3() {
  static const SearchResult R = synthesize(
      Machine(MachineKind::Cmov, 3),
      findAllConfig(MachineKind::Cmov, 3, kModes[0]));
  return R;
}

/// Runs the n=3 all-solutions configuration in mode \p Mo, reusing the
/// shared baseline for the sequential mode.
SearchResult findAllN3(const Mode &Mo) {
  if (Mo.NumThreads == 1 && !Mo.Batch)
    return sequentialN3();
  return synthesize(Machine(MachineKind::Cmov, 3),
                    findAllConfig(MachineKind::Cmov, 3, Mo));
}

/// The cut-1 all-solutions configuration (perm-count heuristic,
/// viability, cut k=1) of the n-input cmov machine, run in mode \p Mo.
SearchOptions cutOneConfig(unsigned N, const Mode &Mo) {
  SearchOptions Opts = findAllConfig(MachineKind::Cmov, N, Mo);
  Opts.Cut = CutConfig::mult(1.0);
  return Opts;
}

/// The n=4 cut-1 DAG, counted only (no reconstruction), on four threads.
const SearchResult &cutOneN4() {
  static const SearchResult R = [] {
    SearchOptions Opts = cutOneConfig(4, kModes[1]);
    Opts.MaxSolutionsKept = 0;
    return synthesize(Machine(MachineKind::Cmov, 4), Opts);
  }();
  return R;
}

size_t storedStates(const SearchResult &R) {
  size_t Total = 0;
  for (size_t Level : R.Stats.LevelStates)
    Total += Level;
  return Total;
}

TEST(EngineEquivalence, CmovN3AllModesAgreeOn5602Solutions) {
  Machine M(MachineKind::Cmov, 3);
  const SearchResult &Baseline = sequentialN3();
  // The per-level state counts of the n=3 all-solutions run. The syntactic
  // prune refuses ~10M expansions here without changing a single level.
  const std::vector<size_t> kLevelStates = {
      1, 7, 36, 225, 1213, 6432, 26828, 110995, 389945, 995165, 74019, 2166};
  EXPECT_EQ(Baseline.Stats.LevelStates, kLevelStates);
  EXPECT_GT(Baseline.Stats.SyntacticPruned, 0u);
  // The action gate decides viability before apply; a gate-pruned action
  // still counts once as generated and once as viability-pruned.
  EXPECT_EQ(Baseline.Stats.StatesGenerated, 56947350u);
  EXPECT_EQ(Baseline.Stats.ViabilityPruned, 50222433u);
  std::set<std::string> Reference;
  for (const Mode &Mo : kModes) {
    SearchResult R = findAllN3(Mo);
    ASSERT_TRUE(R.Found) << Mo.Name;
    EXPECT_EQ(R.OptimalLength, 11u) << Mo.Name;
    EXPECT_EQ(R.SolutionCount, 5602u)
        << Mo.Name << ": paper section 5.3's exact count";
    EXPECT_EQ(R.Solutions.size(), 5602u) << Mo.Name;
    EXPECT_GT(R.Stats.PeakResidentBytes, 0u) << Mo.Name;
    // Every mode gates and filters the same candidates.
    EXPECT_EQ(R.Stats.LevelStates, Baseline.Stats.LevelStates) << Mo.Name;
    EXPECT_EQ(R.Stats.StatesGenerated, Baseline.Stats.StatesGenerated)
        << Mo.Name;
    EXPECT_EQ(R.Stats.SyntacticPruned, Baseline.Stats.SyntacticPruned)
        << Mo.Name;
    std::set<std::string> Set = solutionSet(M, R);
    EXPECT_EQ(Set.size(), 5602u) << Mo.Name << ": solutions are distinct";
    if (Reference.empty())
      Reference = std::move(Set);
    else
      EXPECT_EQ(Set, Reference)
          << Mo.Name << ": reconstructed kernel set differs from sequential";
  }
}

TEST(EngineEquivalence, CmovN4CutOneDagIsPinned) {
  // The n=4 cut k=1 all-solutions DAG (EXPERIMENTS.md): with the syntactic
  // prune always on, the layered engine must still store exactly 1,274,162
  // states and count exactly 10,820,576 optimal length-20 paths.
  const SearchResult &R = cutOneN4();
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.OptimalLength, 20u);
  EXPECT_EQ(R.SolutionCount, 10820576u);
  EXPECT_EQ(storedStates(R), 1274162u);
  EXPECT_TRUE(R.Solutions.empty());
  EXPECT_GT(R.Stats.SyntacticPruned, 0u);
}

TEST(EngineEquivalence, CmovN3CutOneSetIsPinned) {
  // The n=3 cut k=1 all-solutions run (EXPERIMENTS.md; sks-synth --n 3
  // --all --cut 1) is small enough to reconstruct in full: exactly 234
  // optimal kernels, each a correct sort, and the same set in every mode.
  Machine M(MachineKind::Cmov, 3);
  std::set<std::string> Reference;
  for (const Mode &Mo : kModes) {
    SearchResult R = synthesize(M, cutOneConfig(3, Mo));
    ASSERT_TRUE(R.Found) << Mo.Name;
    EXPECT_EQ(R.OptimalLength, 11u) << Mo.Name;
    EXPECT_EQ(R.SolutionCount, 234u) << Mo.Name;
    ASSERT_EQ(R.Solutions.size(), 234u) << Mo.Name;
    for (const Program &P : R.Solutions)
      EXPECT_TRUE(isCorrectKernel(M, P)) << Mo.Name;
    std::set<std::string> Set = solutionSet(M, R);
    EXPECT_EQ(Set.size(), 234u) << Mo.Name << ": solutions are distinct";
    if (Reference.empty())
      Reference = std::move(Set);
    else
      EXPECT_EQ(Set, Reference) << Mo.Name;
  }
}

TEST(EngineEquivalence, MinMaxN3AllModesAgree) {
  Machine M(MachineKind::MinMax, 3);
  std::set<std::string> Reference;
  uint64_t ReferenceCount = 0;
  for (const Mode &Mo : kModes) {
    SearchResult R = synthesize(M, findAllConfig(MachineKind::MinMax, 3, Mo));
    ASSERT_TRUE(R.Found) << Mo.Name;
    EXPECT_EQ(R.OptimalLength, 8u)
        << Mo.Name << ": paper section 5.4's min/max n=3 length";
    EXPECT_EQ(R.Solutions.size(), R.SolutionCount) << Mo.Name;
    std::set<std::string> Set = solutionSet(M, R);
    EXPECT_EQ(Set.size(), R.SolutionCount) << Mo.Name;
    if (Reference.empty()) {
      Reference = std::move(Set);
      ReferenceCount = R.SolutionCount;
    } else {
      EXPECT_EQ(R.SolutionCount, ReferenceCount) << Mo.Name;
      EXPECT_EQ(Set, Reference) << Mo.Name;
    }
  }
}

TEST(EngineEquivalence, ProfiledRunMatchesAndFillsStageCounters) {
  // ProfilePipeline only adds timing; the search must be bit-identical.
  // Run the full 5602-solution config with the profile on (parallel, so
  // the worker-stat fold of the nano counters is exercised too) and check
  // both the pinned results and that every stage actually accumulated.
  Machine M(MachineKind::Cmov, 3);
  SearchOptions Opts = findAllConfig(MachineKind::Cmov, 3, kModes[1]);
  Opts.ProfilePipeline = true;
  SearchResult R = synthesize(M, Opts);
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.OptimalLength, 11u);
  EXPECT_EQ(R.SolutionCount, 5602u);
  EXPECT_EQ(solutionSet(M, R).size(), 5602u);
  EXPECT_GT(R.Stats.ApplyNanos, 0u);
  EXPECT_GT(R.Stats.CanonNanos, 0u);
  EXPECT_GT(R.Stats.ViabilityNanos, 0u);
  EXPECT_GT(R.Stats.MergeNanos, 0u);

  // And with the profile off (the default), the counters stay zero.
  const SearchResult &Off = sequentialN3();
  EXPECT_EQ(Off.Stats.ApplyNanos, 0u);
  EXPECT_EQ(Off.Stats.CanonNanos, 0u);
  EXPECT_EQ(Off.Stats.ViabilityNanos, 0u);
  EXPECT_EQ(Off.Stats.MergeNanos, 0u);
}

TEST(EngineEquivalence, StatsAgreeAcrossThreadCounts) {
  // The merge is deterministic, so the dedup/prune counters — not just the
  // results — must match between one and four threads.
  const SearchResult &Seq = sequentialN3();
  SearchResult Par = findAllN3(kModes[1]);
  EXPECT_EQ(Seq.Stats.StatesExpanded, Par.Stats.StatesExpanded);
  EXPECT_EQ(Seq.Stats.StatesGenerated, Par.Stats.StatesGenerated);
  EXPECT_EQ(Seq.Stats.DedupHits, Par.Stats.DedupHits);
  EXPECT_EQ(Seq.Stats.ViabilityPruned, Par.Stats.ViabilityPruned);
  EXPECT_EQ(Seq.Stats.CutStates, Par.Stats.CutStates);
  EXPECT_EQ(Seq.Stats.SyntacticPruned, Par.Stats.SyntacticPruned);
}

TEST(SearchExtras, MaxStateBytesAbortKeepsCommittedLevels) {
  // The byte budget (SearchOptions::MaxStateBytes), kept next to the mode
  // matrix and the n=3 baseline it compares against. A run that outgrows
  // ~16 MiB must abort as MemoryLimited without a kernel and report the
  // state bytes it reached. A layered run keeps exactly the levels it
  // committed before the abort: a strict prefix of the unbudgeted run's
  // per-level counts, in every execution mode.
  constexpr size_t kBudget = 16u << 20;
  Machine M(MachineKind::Cmov, 3);
  const std::vector<size_t> &Full = sequentialN3().Stats.LevelStates;
  for (const Mode &Mo : kModes) {
    SearchOptions Opts = findAllConfig(MachineKind::Cmov, 3, Mo);
    Opts.MaxStateBytes = kBudget;
    SearchResult R = synthesize(M, Opts);
    EXPECT_FALSE(R.Found) << Mo.Name;
    EXPECT_TRUE(R.Stats.MemoryLimited) << Mo.Name;
    EXPECT_TRUE(R.Stats.TimedOut) << Mo.Name;
    EXPECT_GT(R.Stats.PeakResidentBytes, 0u) << Mo.Name;
    const std::vector<size_t> &Levels = R.Stats.LevelStates;
    ASSERT_FALSE(Levels.empty()) << Mo.Name;
    ASSERT_LT(Levels.size(), Full.size()) << Mo.Name;
    EXPECT_TRUE(std::equal(Levels.begin(), Levels.end(), Full.begin()))
        << Mo.Name;
  }

  // The best-first engine under the same budget (uninformed, so it has to
  // store far more than the budget before reaching a sorted state).
  SearchOptions Opts = findAllConfig(MachineKind::Cmov, 3, kModes[0]);
  Opts.FindAll = false;
  Opts.Heuristic = HeuristicKind::None;
  Opts.MaxStateBytes = kBudget;
  SearchResult R = synthesize(M, Opts);
  EXPECT_FALSE(R.Found);
  EXPECT_TRUE(R.Stats.MemoryLimited);
  EXPECT_TRUE(R.Stats.TimedOut);
  EXPECT_GT(R.Stats.PeakResidentBytes, 0u);
}

TEST(EngineEquivalence, GoalSolutionSetsAreModeInvariant) {
  // The goal-predicate generalization under every execution mode: the
  // select-1 (minimum) and top-1 (maximum) all-solutions runs at n=3 each
  // have
  // exactly 4 optimal kernels of length 4 (measured; two compare orders
  // times two cmov argument orders), and the reconstructed sets must be
  // identical across sequential/threaded/batch execution. This is the
  // non-sort analogue of the 5602-kernel pin above.
  struct GoalCase {
    GoalSpec Goal;
    const char *Name;
  };
  const GoalCase Cases[] = {
      {GoalSpec::selectK(1), "select-1"},
      {GoalSpec::topK(1), "top-1"},
  };
  for (const GoalCase &C : Cases) {
    Machine M(MachineKind::Cmov, 3, /*Scratch=*/1, C.Goal);
    std::set<std::string> Reference;
    for (const Mode &Mo : kModes) {
      SearchResult R =
          synthesize(M, findAllConfig(MachineKind::Cmov, 3, Mo));
      ASSERT_TRUE(R.Found) << C.Name << " " << Mo.Name;
      EXPECT_EQ(R.OptimalLength, 4u) << C.Name << " " << Mo.Name;
      EXPECT_EQ(R.SolutionCount, 4u) << C.Name << " " << Mo.Name;
      std::set<std::string> Set = solutionSet(M, R);
      EXPECT_EQ(Set.size(), 4u) << C.Name << " " << Mo.Name;
      for (const Program &P : R.Solutions)
        EXPECT_TRUE(isCorrectKernel(M, P)) << C.Name << " " << Mo.Name;
      if (Reference.empty())
        Reference = std::move(Set);
      else
        EXPECT_EQ(Set, Reference) << C.Name << " " << Mo.Name;
    }
  }
}

TEST(EngineEquivalence, GoalSearchUnderThreadsSmoke) {
  // The tsan_goals ctest entry: the select-1 all-solutions run is a few
  // milliseconds even instrumented, and it drives goal-collapsed distinct
  // counts (search/SearchImpl.h countDistinctGoal) through the threaded
  // expansion and sharded merge.
  Machine M(MachineKind::Cmov, 3, /*Scratch=*/1, GoalSpec::selectK(1));
  std::set<std::string> Reference;
  for (const Mode &Mo : kModes) {
    SearchResult R = synthesize(M, findAllConfig(MachineKind::Cmov, 3, Mo));
    ASSERT_TRUE(R.Found) << Mo.Name;
    EXPECT_EQ(R.OptimalLength, 4u) << Mo.Name;
    std::set<std::string> Set = solutionSet(M, R);
    if (Reference.empty())
      Reference = std::move(Set);
    else
      EXPECT_EQ(Set, Reference) << Mo.Name;
  }
}

TEST(EngineEquivalence, SyntacticPruneUnderThreadsSmoke) {
  // The tsan_engine_equivalence ctest entry (tests/CMakeLists.txt) runs
  // this instead of the minute-scale pins above: config (III) —
  // perm-count heuristic, viability, cut k=1 — keeps each run in the
  // tens of milliseconds even instrumented, while still driving the
  // per-node prefix summaries through the threaded expansion and the
  // sharded parallel merge. Every mode refuses the same expansions and
  // stores the same states.
  Machine M(MachineKind::Cmov, 3);
  std::set<std::string> Reference;
  SearchResult First;
  for (const Mode &Mo : kModes) {
    SearchResult R = synthesize(M, cutOneConfig(3, Mo));
    ASSERT_TRUE(R.Found) << Mo.Name;
    EXPECT_EQ(R.OptimalLength, 11u) << Mo.Name;
    EXPECT_GT(R.Stats.SyntacticPruned, 0u) << Mo.Name;
    std::set<std::string> Set = solutionSet(M, R);
    if (Reference.empty()) {
      Reference = std::move(Set);
      First = std::move(R);
    } else {
      EXPECT_EQ(R.SolutionCount, First.SolutionCount) << Mo.Name;
      EXPECT_EQ(R.Stats.SyntacticPruned, First.Stats.SyntacticPruned)
          << Mo.Name;
      EXPECT_EQ(R.Stats.LevelStates, First.Stats.LevelStates) << Mo.Name;
      EXPECT_EQ(Set, Reference) << Mo.Name;
    }
  }
}

} // namespace
