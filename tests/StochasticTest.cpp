//===- tests/StochasticTest.cpp - Stochastic-engine determinism tests ---------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "mcts/Mcts.h"
#include "stoke/Stoke.h"

#include "verify/Verify.h"

#include <gtest/gtest.h>

using namespace sks;

namespace {

TEST(Stoke, DeterministicPerSeed) {
  Machine M(MachineKind::Cmov, 2);
  StokeOptions Opts;
  Opts.Length = 4;
  Opts.MaxIterations = 200000;
  Opts.RngSeed = 99;
  StokeResult A = stokeSynthesize(M, Opts);
  StokeResult B = stokeSynthesize(M, Opts);
  EXPECT_EQ(A.Found, B.Found);
  EXPECT_EQ(A.Iterations, B.Iterations);
  EXPECT_EQ(A.BestCost, B.BestCost);
  EXPECT_EQ(A.Best, B.Best);
}

TEST(Stoke, DifferentSeedsExploreDifferently) {
  Machine M(MachineKind::Cmov, 3);
  StokeOptions Opts;
  Opts.Length = 11;
  Opts.MaxIterations = 5000;
  Opts.RngSeed = 1;
  StokeResult A = stokeSynthesize(M, Opts);
  Opts.RngSeed = 2;
  StokeResult B = stokeSynthesize(M, Opts);
  EXPECT_NE(A.Best, B.Best);
}

TEST(Stoke, BestCostNeverIncreasesAcrossBudget) {
  Machine M(MachineKind::Cmov, 3);
  StokeOptions Small, Large;
  Small.Length = Large.Length = 11;
  Small.RngSeed = Large.RngSeed = 7;
  Small.MaxIterations = 2000;
  Large.MaxIterations = 50000;
  StokeResult A = stokeSynthesize(M, Small);
  StokeResult B = stokeSynthesize(M, Large);
  EXPECT_LE(B.BestCost, A.BestCost)
      << "more proposals can only improve the best cost";
}

TEST(Stoke, MinMaxMachineSupported) {
  Machine M(MachineKind::MinMax, 2);
  StokeOptions Opts;
  Opts.Length = 3;
  Opts.MaxIterations = 2000000;
  Opts.TimeoutSeconds = 30;
  StokeResult R = stokeSynthesize(M, Opts);
  EXPECT_TRUE(R.Found) << "a 3-instruction pair sorter is easy to find";
  if (R.Found) {
    EXPECT_TRUE(isCorrectKernel(M, R.Best));
  }
}

TEST(Mcts, DeterministicPerSeed) {
  Machine M(MachineKind::Cmov, 2);
  MctsOptions Opts;
  Opts.MaxLength = 6;
  Opts.RolloutDepth = 6;
  Opts.MaxIterations = 5000;
  Opts.RngSeed = 5;
  MctsResult A = mctsSynthesize(M, Opts);
  MctsResult B = mctsSynthesize(M, Opts);
  EXPECT_EQ(A.Found, B.Found);
  EXPECT_EQ(A.Iterations, B.Iterations);
  EXPECT_EQ(A.P, B.P);
}

TEST(Mcts, FoundKernelIsAlwaysVerified) {
  Machine M(MachineKind::Cmov, 2);
  for (uint64_t Seed : {1ull, 2ull, 3ull}) {
    MctsOptions Opts;
    Opts.MaxLength = 6;
    Opts.RolloutDepth = 6;
    Opts.MaxIterations = UINT64_MAX;
    Opts.TimeoutSeconds = 60;
    Opts.RngSeed = Seed;
    MctsResult R = mctsSynthesize(M, Opts);
    if (R.Found) {
      EXPECT_TRUE(isCorrectKernel(M, R.P)) << "seed " << Seed;
    }
  }
}

TEST(Mcts, TreeGrowsWithBudget) {
  Machine M(MachineKind::Cmov, 3);
  MctsOptions Small, Large;
  Small.MaxLength = Large.MaxLength = 11;
  Small.RolloutDepth = Large.RolloutDepth = 11;
  Small.MaxIterations = 500;
  Large.MaxIterations = 5000;
  MctsResult A = mctsSynthesize(M, Small);
  MctsResult B = mctsSynthesize(M, Large);
  EXPECT_LE(A.TreeNodes, B.TreeNodes);
}

} // namespace
