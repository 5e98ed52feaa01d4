//===- tests/SymmetryTest.cpp - Program register canonicalization ---------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Unit and randomized property tests for analysis/Symmetry.h, the
// program-level renaming behind the sks-lint rule non-canonical-registers:
//
//  - on random instruction walks over two- and three-scratch cmov machines,
//    the canonical program stays in the alphabet, computes the same data
//    registers as the original on every initial assignment, and is the same
//    for every scratch renaming of the program (orbit invariance);
//  - cmp re-normalization and the forced cmov direction flips, on verified
//    sort kernels, and the trivial and mixed-file cases.
//
//===----------------------------------------------------------------------===//

#include "analysis/Symmetry.h"
#include "state/SearchState.h"
#include "support/Rng.h"
#include "verify/Verify.h"

#include <algorithm>
#include <array>
#include <gtest/gtest.h>
#include <numeric>

using namespace sks;

namespace {

/// A random program of \p Len alphabet instructions of \p M.
Program randomWalk(const Machine &M, Rng &R, size_t Len) {
  const std::vector<Instr> &Alphabet = M.instructions();
  Program P;
  for (size_t I = 0; I != Len; ++I)
    P.push_back(Alphabet[R.below(Alphabet.size())]);
  return P;
}

/// The cmov machines the properties run on: n = 3 with two and with three
/// scratch registers (one scratch register permutes only trivially).
std::vector<Machine> renamableMachines() {
  return {Machine(MachineKind::Cmov, 3, 2), Machine(MachineKind::Cmov, 3, 3)};
}

/// Reference renaming, written independently of the implementation: apply
/// \p Perm to every register, write a cmp whose operands come out
/// descending in the alphabet's ascending order, and flip every
/// conditional move that reads the flags of such a swapped cmp.
Program renameScratch(const Program &P,
                      const std::array<uint8_t, kMaxRegs> &Perm) {
  Program Out;
  bool Swapped = false;
  for (Instr I : P) {
    I.Dst = Perm[I.Dst];
    I.Src = Perm[I.Src];
    if (I.Op == Opcode::Cmp) {
      Swapped = I.Dst > I.Src;
      if (Swapped)
        std::swap(I.Dst, I.Src);
    } else if (Swapped && I.Op == Opcode::CMovL) {
      I.Op = Opcode::CMovG;
    } else if (Swapped && I.Op == Opcode::CMovG) {
      I.Op = Opcode::CMovL;
    }
    Out.push_back(I);
  }
  return Out;
}

TEST(Symmetry, RenamedInstructionsStayInTheAlphabet) {
  // The canonical program must itself be writable in the machine's
  // alphabet: cmp operands ascending, no self-moves.
  for (const Machine &M : renamableMachines()) {
    const std::vector<Instr> &Alphabet = M.instructions();
    Rng R(7 + M.numRegs());
    for (int Round = 0; Round != 200; ++Round) {
      for (const Instr &I : canonicalProgram(randomWalk(M, R, 12), 3))
        ASSERT_NE(std::find(Alphabet.begin(), Alphabet.end(), I),
                  Alphabet.end())
            << toString(I, M.numData()) << " round " << Round;
    }
  }
}

TEST(Symmetry, RenameInstrCommutesWithExecution) {
  // The soundness core of the lint rule: the canonical renaming of a
  // program computes the same data registers as the program itself from
  // every initial assignment (scratch registers all start equal, so
  // renaming them does not change the start state).
  for (const Machine &M : renamableMachines()) {
    const std::vector<uint32_t> Inputs = initialState(M).Rows;
    Rng R(77 + M.numRegs());
    for (int Round = 0; Round != 200; ++Round) {
      const Program P = randomWalk(M, R, 16);
      const Program Canon = canonicalProgram(P, 3);
      for (uint32_t Row : Inputs)
        ASSERT_EQ(M.run(Row, Canon) & M.dataMask(),
                  M.run(Row, P) & M.dataMask())
            << toString(P, 3) << "renamed to\n" << toString(Canon, 3);
    }
  }
}

TEST(Symmetry, CanonicalizeIsOrbitInvariantOnRandomWalks) {
  // Every scratch renaming of a random program canonicalizes to the same
  // program, which is a fixed point (idempotence).
  for (const Machine &M : renamableMachines()) {
    Rng R(9001 + M.numRegs());
    std::array<uint8_t, kMaxRegs> Perm;
    for (int Round = 0; Round != 100; ++Round) {
      const Program P = randomWalk(M, R, 14);
      const Program Canon = canonicalProgram(P, 3);
      ASSERT_TRUE(isCanonicalProgram(Canon, 3)) << toString(P, 3);
      std::iota(Perm.begin(), Perm.end(), uint8_t(0));
      do {
        ASSERT_EQ(canonicalProgram(renameScratch(P, Perm), 3), Canon)
            << toString(P, 3);
      } while (std::next_permutation(Perm.begin() + 3,
                                     Perm.begin() + M.numRegs()));
    }
  }
}

TEST(Symmetry, CanonicalProgramRenamesScratchAndFlipsCmovs) {
  // Two behaviorally identical sort-2 kernels over scratch registers
  // s1 = reg 2 and s2 = reg 3; Q is P under the s1 <-> s2 swap, with the
  // scratch-scratch cmp re-normalized into the alphabet and both
  // conditional moves flipped through the forced parity. P is the orbit
  // representative; canonicalProgram must map Q back onto it.
  const unsigned N = 2;
  const Program P = {
      {Opcode::Mov, 2, 0},   // mov s1, r1
      {Opcode::Mov, 3, 1},   // mov s2, r2
      {Opcode::Cmp, 2, 3},   // cmp s1, s2     (lt iff r1 < r2)
      {Opcode::CMovG, 0, 3}, // cmovg r1, s2   (r1 > r2: r1 = r2)
      {Opcode::CMovG, 1, 2}, // cmovg r2, s1   (r1 > r2: r2 = old r1)
  };
  const Program Q = {
      {Opcode::Mov, 3, 0},   // mov s2, r1
      {Opcode::Mov, 2, 1},   // mov s1, r2
      {Opcode::Cmp, 2, 3},   // cmp s1, s2     (lt iff r2 < r1: swapped!)
      {Opcode::CMovL, 0, 2}, // cmovl r1, s1
      {Opcode::CMovL, 1, 3}, // cmovl r2, s2
  };
  Machine M(MachineKind::Cmov, N, 2);
  ASSERT_TRUE(isCorrectKernel(M, P));
  ASSERT_TRUE(isCorrectKernel(M, Q));

  EXPECT_TRUE(isCanonicalProgram(P, N));
  EXPECT_FALSE(isCanonicalProgram(Q, N));
  EXPECT_EQ(canonicalProgram(Q, N), P);
  EXPECT_EQ(canonicalProgram(P, N), P); // Idempotent.
  // The canonical form is still a correct kernel — the rule is purely
  // informational.
  EXPECT_TRUE(isCorrectKernel(M, canonicalProgram(Q, N)));
}

TEST(Symmetry, CanonicalProgramTrivialCases) {
  // m = 1: a single scratch register permutes only trivially, so every
  // kernel is its own canonical form (the prebuilt kernels rely on this).
  const Program OneScratch = {
      {Opcode::Mov, 2, 0},
      {Opcode::Cmp, 0, 1},
      {Opcode::CMovG, 0, 1},
      {Opcode::CMovG, 1, 2},
  };
  EXPECT_TRUE(isCanonicalProgram(OneScratch, 2));

  // Mixed-file programs are skipped: the GP/vector split is not
  // recoverable from the text, so no renaming is attempted even though
  // two scratch registers appear.
  const Program Mixed = {
      {Opcode::Mov, 3, 0},
      {Opcode::Min, 2, 1},
      {Opcode::Cmp, 0, 1},
  };
  EXPECT_EQ(canonicalProgram(Mixed, 2), Mixed);
  EXPECT_TRUE(isCanonicalProgram(Mixed, 2));
}

} // namespace
