//===- smt/SmtSynth.cpp - Solver-based synthesis (section 4.1) -------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// CNF encoding. Register values use B = ceil(log2(n+1)) bits. Variables:
//
//   Sel[t][i]        one-hot instruction choice at step t (shared by all
//                    examples)
//   Reg[e][t][r][b]  bit b of register r after t instructions, example e
//   Lt[e][t], Gt[e][t] flags (cmov machine)
//
// Transitions are encoded per (example, step, instruction) as implications
// Sel -> effect, with shared frame axioms: an auxiliary Write[t][r] literal
// (Tseitin OR of the selectors writing r) guards "register unchanged"
// clauses, which keeps the encoding near-linear in the alphabet instead of
// quadratic. Comparisons and min/max relate values through implications
// over all value pairs (the domain has at most 7 values, so this stays
// small and avoids comparator circuits).
//
//===----------------------------------------------------------------------===//

#include "smt/SmtSynth.h"

#include "sat/SatSolver.h"
#include "support/Permutations.h"
#include "support/Timing.h"
#include "verify/Verify.h"

#include <cassert>

using namespace sks;

namespace {

/// One encoding instance over a set of input examples.
class Encoder {
public:
  Encoder(const Machine &M, const SmtOptions &Opts,
          const std::vector<std::vector<int>> &Examples)
      : M(M), Opts(Opts), Examples(Examples),
        NumBits(M.numValues() <= 2 ? 1 : (M.numValues() <= 4 ? 2 : 3)) {
    Alphabet = M.instructions();
    if (Opts.IncludeSymmetricCmps && M.kind() == MachineKind::Cmov)
      for (unsigned A = 0; A != M.numRegs(); ++A)
        for (unsigned B = 0; B != A; ++B)
          Alphabet.push_back(Instr{Opcode::Cmp, static_cast<uint8_t>(A),
                                   static_cast<uint8_t>(B)});
    build();
  }

  SatSolver &solver() { return Solver; }

  /// Decodes the instruction sequence from a satisfying assignment.
  Program decode() const {
    Program P;
    for (unsigned T = 0; T != Opts.Length; ++T) {
      for (size_t I = 0; I != Alphabet.size(); ++I)
        if (Solver.valueOf(Sel[T][I])) {
          P.push_back(Alphabet[I]);
          break;
        }
    }
    return P;
  }

private:
  void build();
  void encodeStep(unsigned T);
  void encodeGoal();

  /// Literal asserting "register r of example e at time t equals value V".
  /// Expands to NumBits literals; used as clause antecedents.
  void valueAntecedent(unsigned E, unsigned T, unsigned R, unsigned V,
                       std::vector<Lit> &Clause) const {
    for (unsigned B = 0; B != NumBits; ++B) {
      Lit BitVar = Reg[E][T][R][B];
      // Antecedent "bit == v_b" contributes the negated literal.
      Clause.push_back((V >> B) & 1 ? -BitVar : BitVar);
    }
  }

  /// Adds clauses Sel -> (X[.] == V) for a register's next value.
  void implyRegEquals(Lit Sel, unsigned E, unsigned T, unsigned R,
                      unsigned V) {
    for (unsigned B = 0; B != NumBits; ++B) {
      Lit BitVar = Reg[E][T][R][B];
      Solver.addBinary(-Sel, (V >> B) & 1 ? BitVar : -BitVar);
    }
  }

  /// Adds clauses Guard -> (next[r] == cur[rSrc]) bitwise, with optional
  /// extra antecedent.
  void implyRegCopy(const std::vector<Lit> &Antecedents, unsigned E,
                    unsigned T, unsigned DstReg, unsigned SrcReg) {
    for (unsigned B = 0; B != NumBits; ++B) {
      Lit Next = Reg[E][T + 1][DstReg][B];
      Lit Cur = Reg[E][T][SrcReg][B];
      std::vector<Lit> C1 = Antecedents, C2 = Antecedents;
      C1.push_back(-Next);
      C1.push_back(Cur);
      C2.push_back(Next);
      C2.push_back(-Cur);
      Solver.addClause(C1);
      Solver.addClause(C2);
    }
  }

  const Machine &M;
  const SmtOptions &Opts;
  const std::vector<std::vector<int>> &Examples;
  std::vector<Instr> Alphabet;
  unsigned NumBits;
  SatSolver Solver;

  // Sel[t][i]; Reg[e][t][r][b]; Lt/Gt[e][t].
  std::vector<std::vector<int>> Sel;
  std::vector<std::vector<std::vector<std::vector<int>>>> Reg;
  std::vector<std::vector<int>> LtFlag, GtFlag;
};

} // namespace

void Encoder::build() {
  const unsigned R = M.numRegs();
  const bool HasFlags = M.kind() == MachineKind::Cmov;
  const unsigned NumSteps = Opts.Length;
  const unsigned NumExamples = static_cast<unsigned>(Examples.size());

  Sel.assign(NumSteps, {});
  for (unsigned T = 0; T != NumSteps; ++T) {
    for (size_t I = 0; I != Alphabet.size(); ++I)
      Sel[T].push_back(Solver.newVar());
    Solver.addExactlyOne(
        std::vector<Lit>(Sel[T].begin(), Sel[T].end()));
  }

  Reg.assign(NumExamples, {});
  LtFlag.assign(NumExamples, {});
  GtFlag.assign(NumExamples, {});
  for (unsigned E = 0; E != NumExamples; ++E) {
    Reg[E].assign(NumSteps + 1, {});
    for (unsigned T = 0; T <= NumSteps; ++T) {
      Reg[E][T].assign(R, {});
      for (unsigned RegIdx = 0; RegIdx != R; ++RegIdx)
        for (unsigned B = 0; B != NumBits; ++B)
          Reg[E][T][RegIdx].push_back(Solver.newVar());
      if (HasFlags) {
        LtFlag[E].push_back(Solver.newVar());
        GtFlag[E].push_back(Solver.newVar());
      }
    }
    // Initial state: data registers from the example, scratch 0, flags
    // clear.
    for (unsigned RegIdx = 0; RegIdx != R; ++RegIdx) {
      unsigned V =
          RegIdx < M.numData() ? static_cast<unsigned>(Examples[E][RegIdx]) : 0;
      for (unsigned B = 0; B != NumBits; ++B)
        Solver.addUnit((V >> B) & 1 ? Reg[E][0][RegIdx][B]
                                    : -Reg[E][0][RegIdx][B]);
    }
    if (HasFlags) {
      Solver.addUnit(-LtFlag[E][0]);
      Solver.addUnit(-GtFlag[E][0]);
    }
  }

  if (Opts.NoConsecutiveCmp && HasFlags) {
    for (unsigned T = 0; T + 1 < NumSteps; ++T)
      for (size_t I = 0; I != Alphabet.size(); ++I)
        for (size_t J = 0; J != Alphabet.size(); ++J)
          if (Alphabet[I].Op == Opcode::Cmp && Alphabet[J].Op == Opcode::Cmp)
            Solver.addBinary(-Sel[T][I], -Sel[T + 1][J]);
  }

  if (Opts.FirstInstrCmp && HasFlags && NumSteps > 0) {
    std::vector<Lit> CmpFirst;
    for (size_t I = 0; I != Alphabet.size(); ++I)
      if (Alphabet[I].Op == Opcode::Cmp)
        CmpFirst.push_back(Sel[0][I]);
    Solver.addClause(CmpFirst);
  }

  for (unsigned T = 0; T != NumSteps; ++T)
    encodeStep(T);
  encodeGoal();
}

void Encoder::encodeStep(unsigned T) {
  const unsigned R = M.numRegs();
  const unsigned NumValues = M.numValues();
  const bool HasFlags = M.kind() == MachineKind::Cmov;
  const unsigned NumExamples = static_cast<unsigned>(Examples.size());

  // Write[r]: some instruction writing r is selected (Tseitin OR).
  std::vector<int> WriteVar(R);
  for (unsigned RegIdx = 0; RegIdx != R; ++RegIdx) {
    WriteVar[RegIdx] = Solver.newVar();
    std::vector<Lit> OrClause{-WriteVar[RegIdx]};
    for (size_t I = 0; I != Alphabet.size(); ++I) {
      const Instr &Ins = Alphabet[I];
      bool Writes = Ins.Op != Opcode::Cmp && Ins.Dst == RegIdx;
      if (!Writes)
        continue;
      OrClause.push_back(Sel[T][I]);
      Solver.addBinary(-Sel[T][I], WriteVar[RegIdx]);
    }
    Solver.addClause(OrClause);
  }
  int FlagWriteVar = 0;
  if (HasFlags) {
    FlagWriteVar = Solver.newVar();
    std::vector<Lit> OrClause{-FlagWriteVar};
    for (size_t I = 0; I != Alphabet.size(); ++I)
      if (Alphabet[I].Op == Opcode::Cmp) {
        OrClause.push_back(Sel[T][I]);
        Solver.addBinary(-Sel[T][I], FlagWriteVar);
      }
    Solver.addClause(OrClause);
  }

  for (unsigned E = 0; E != NumExamples; ++E) {
    // Frame: unwritten registers keep their value; flags persist unless a
    // cmp is selected.
    for (unsigned RegIdx = 0; RegIdx != R; ++RegIdx)
      implyRegCopy({static_cast<Lit>(WriteVar[RegIdx])}, E, T, RegIdx,
                   RegIdx);
    if (HasFlags) {
      Solver.addTernary(FlagWriteVar, -LtFlag[E][T + 1], LtFlag[E][T]);
      Solver.addTernary(FlagWriteVar, LtFlag[E][T + 1], -LtFlag[E][T]);
      Solver.addTernary(FlagWriteVar, -GtFlag[E][T + 1], GtFlag[E][T]);
      Solver.addTernary(FlagWriteVar, GtFlag[E][T + 1], -GtFlag[E][T]);
    }

    for (size_t I = 0; I != Alphabet.size(); ++I) {
      const Instr &Ins = Alphabet[I];
      Lit S = Sel[T][I];
      switch (Ins.Op) {
      case Opcode::Mov:
        implyRegCopy({-S}, E, T, Ins.Dst, Ins.Src);
        break;
      case Opcode::Cmp:
        // Value-pair implications for the flag outcome.
        for (unsigned VA = 0; VA != NumValues; ++VA)
          for (unsigned VB = 0; VB != NumValues; ++VB) {
            std::vector<Lit> Base{-S};
            valueAntecedent(E, T, Ins.Dst, VA, Base);
            valueAntecedent(E, T, Ins.Src, VB, Base);
            std::vector<Lit> LtClause = Base, GtClause = Base;
            LtClause.push_back(VA < VB ? LtFlag[E][T + 1]
                                       : -LtFlag[E][T + 1]);
            GtClause.push_back(VA > VB ? GtFlag[E][T + 1]
                                       : -GtFlag[E][T + 1]);
            Solver.addClause(LtClause);
            Solver.addClause(GtClause);
          }
        break;
      case Opcode::CMovL:
        implyRegCopy({-S, -LtFlag[E][T]}, E, T, Ins.Dst, Ins.Src);
        implyRegCopy({-S, static_cast<Lit>(LtFlag[E][T])}, E, T, Ins.Dst,
                     Ins.Dst);
        break;
      case Opcode::CMovG:
        implyRegCopy({-S, -GtFlag[E][T]}, E, T, Ins.Dst, Ins.Src);
        implyRegCopy({-S, static_cast<Lit>(GtFlag[E][T])}, E, T, Ins.Dst,
                     Ins.Dst);
        break;
      case Opcode::Min:
      case Opcode::Max:
        for (unsigned VD = 0; VD != NumValues; ++VD)
          for (unsigned VS = 0; VS != NumValues; ++VS) {
            unsigned Result = Ins.Op == Opcode::Min ? std::min(VD, VS)
                                                    : std::max(VD, VS);
            std::vector<Lit> Base{-S};
            valueAntecedent(E, T, Ins.Dst, VD, Base);
            valueAntecedent(E, T, Ins.Src, VS, Base);
            for (unsigned B = 0; B != NumBits; ++B) {
              std::vector<Lit> C = Base;
              Lit Next = Reg[E][T + 1][Ins.Dst][B];
              C.push_back((Result >> B) & 1 ? Next : -Next);
              Solver.addClause(C);
            }
          }
        break;
      }
    }
  }
}

void Encoder::encodeGoal() {
  const unsigned NumSteps = Opts.Length;
  const unsigned N = M.numData();
  const unsigned NumValues = M.numValues();
  const unsigned NumExamples = static_cast<unsigned>(Examples.size());

  for (unsigned E = 0; E != NumExamples; ++E) {
    if (Opts.Goal == SmtGoal::Exact || Opts.Goal == SmtGoal::Both) {
      // "= 123": the output is 1..n in order.
      for (unsigned RegIdx = 0; RegIdx != N; ++RegIdx) {
        unsigned V = RegIdx + 1;
        for (unsigned B = 0; B != NumBits; ++B)
          Solver.addUnit((V >> B) & 1 ? Reg[E][NumSteps][RegIdx][B]
                                      : -Reg[E][NumSteps][RegIdx][B]);
      }
      if (Opts.Goal == SmtGoal::Exact)
        continue;
    }
    // "<=, #0123": adjacent registers ascending...
    for (unsigned RegIdx = 0; RegIdx + 1 < N; ++RegIdx)
      for (unsigned VA = 0; VA != NumValues; ++VA)
        for (unsigned VB = 0; VB != NumValues; ++VB) {
          if (VA <= VB)
            continue;
          std::vector<Lit> Clause;
          valueAntecedent(E, NumSteps, RegIdx, VA, Clause);
          valueAntecedent(E, NumSteps, RegIdx + 1, VB, Clause);
          Solver.addClause(Clause); // Forbid descending pair.
        }
    // ... and every value 0..n occurs in the data registers as often as in
    // the input (i.e. 0 never, each of 1..n exactly once). "Exactly once"
    // over n registers: at least one register holds v, and no two do.
    for (unsigned V = Opts.CountZero ? 0u : 1u; V != NumValues; ++V) {
      // Indicator var per register: reg == v.
      std::vector<Lit> Indicators;
      for (unsigned RegIdx = 0; RegIdx != N; ++RegIdx) {
        int Ind = Solver.newVar();
        std::vector<Lit> Def{static_cast<Lit>(Ind)};
        valueAntecedent(E, NumSteps, RegIdx, V, Def);
        Solver.addClause(Def); // (reg==v) -> Ind.
        for (unsigned B = 0; B != NumBits; ++B) {
          Lit BitVar = Reg[E][NumSteps][RegIdx][B];
          Solver.addBinary(-Ind, (V >> B) & 1 ? BitVar : -BitVar);
        }
        Indicators.push_back(Ind);
      }
      if (V == 0) {
        for (Lit Ind : Indicators)
          Solver.addUnit(-Ind);
      } else {
        Solver.addExactlyOne(Indicators);
      }
    }
  }
}

static SmtResult solveOnce(const Machine &M, const SmtOptions &Opts,
                           const std::vector<std::vector<int>> &Examples,
                           double Remaining) {
  SmtResult Result;
  if (Opts.Stop.stopRequested()) {
    // Building the encoding for n! examples is itself expensive; bail
    // before it when a stop already landed.
    Result.TimedOut = true;
    return Result;
  }
  Encoder Enc(M, Opts, Examples);
  Result.NumVars = static_cast<size_t>(Enc.solver().numVars());
  Result.NumClauses = Enc.solver().numClauses();
  SatResult Sat = Enc.solver().solve(Remaining, Opts.Stop);
  if (Sat == SatResult::Unknown) {
    Result.TimedOut = true;
    return Result;
  }
  if (Sat == SatResult::Sat) {
    Result.Found = true;
    Result.P = Enc.decode();
  }
  return Result;
}

SmtResult sks::smtSynthesize(const Machine &M, const SmtOptions &Opts) {
  Stopwatch Timer;
  StopToken Budget = Opts.Stop.withDeadline(Opts.TimeoutSeconds);
  auto Remaining = [&] {
    if (Opts.TimeoutSeconds <= 0)
      return 0.0;
    double Left = Opts.TimeoutSeconds - Timer.seconds();
    return Left > 0.01 ? Left : 0.01;
  };

  if (!Opts.Cegis) {
    // SMT-Perm: all permutations in one query; the result is correct by
    // construction.
    SmtResult Result =
        solveOnce(M, Opts, allPermutations(M.numData()), Remaining());
    Result.Seconds = Timer.seconds();
    Result.CegisIterations = 1;
    return Result;
  }

  // SMT-CEGIS: grow the example set from counterexamples.
  std::vector<std::vector<int>> Examples;
  {
    // Seed with the reverse permutation — the classic hardest case.
    std::vector<int> Seed;
    for (unsigned I = M.numData(); I >= 1; --I)
      Seed.push_back(static_cast<int>(I));
    Examples.push_back(Seed);
  }
  SmtResult Result;
  for (;;) {
    ++Result.CegisIterations;
    SmtResult Attempt = solveOnce(M, Opts, Examples, Remaining());
    Result.NumVars = std::max(Result.NumVars, Attempt.NumVars);
    Result.NumClauses = std::max(Result.NumClauses, Attempt.NumClauses);
    if (Attempt.TimedOut || !Attempt.Found) {
      Result.TimedOut = Attempt.TimedOut;
      break; // UNSAT on a subset proves UNSAT for the full problem.
    }
    std::vector<int> Counterexample = findCounterexample(M, Attempt.P);
    if (Counterexample.empty()) {
      Result.Found = true;
      Result.P = Attempt.P;
      break;
    }
    Examples.push_back(Counterexample);
    if (Budget.stopRequested()) {
      Result.TimedOut = true;
      break;
    }
  }
  Result.Seconds = Timer.seconds();
  return Result;
}

SmtResult sks::smtSynthesizeIterative(const Machine &M, SmtOptions Opts,
                                      unsigned MaxLength) {
  Stopwatch Timer;
  StopToken Budget = Opts.Stop.withDeadline(Opts.TimeoutSeconds);
  double TotalBudget = Opts.TimeoutSeconds;
  SmtResult Last;
  for (unsigned Length = Opts.Length; Length <= MaxLength; ++Length) {
    Opts.Length = Length;
    if (TotalBudget > 0)
      Opts.TimeoutSeconds = std::max(0.01, TotalBudget - Timer.seconds());
    Last = smtSynthesize(M, Opts);
    if (Last.Found || Last.TimedOut)
      break;
    if (Budget.stopRequested()) {
      // Longer lengths were never tried, so this is no proof of absence.
      Last.TimedOut = Length < MaxLength;
      break;
    }
  }
  Last.Seconds = Timer.seconds();
  return Last;
}
