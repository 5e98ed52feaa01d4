//===- ilp/BranchBound.cpp - Branch-and-bound integer programming ----------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ilp/BranchBound.h"

#include "support/Timing.h"

#include <cmath>

using namespace sks;

namespace {

struct BnbContext {
  const std::vector<size_t> &IntegerVars;
  StopToken Budget;
  IlpResult Result;
  bool HaveIncumbent = false;

  BnbContext(const std::vector<size_t> &IntegerVars, double TimeoutSeconds,
             const StopToken &Stop)
      : IntegerVars(IntegerVars), Budget(Stop.withDeadline(TimeoutSeconds)) {}
};

constexpr double IntEps = 1e-6;

void branch(LinearProgram &LP, BnbContext &Ctx) {
  if (Ctx.Budget.stopRequested()) {
    Ctx.Result.Status = IlpStatus::TimedOut;
    return;
  }
  ++Ctx.Result.NodesExplored;
  LpSolution Relaxed = solveLp(LP, 200000, Ctx.Budget);
  if (Relaxed.Status == LpStatus::IterationLimit &&
      Ctx.Budget.stopRequested()) {
    // The stop landed inside the relaxation: a timeout, not a pruned node
    // (pruning would let a deadline read as a proof of infeasibility).
    Ctx.Result.Status = IlpStatus::TimedOut;
    return;
  }
  if (Relaxed.Status != LpStatus::Optimal)
    return; // Infeasible/limit: prune.
  if (Ctx.HaveIncumbent && Relaxed.Objective <= Ctx.Result.Objective + IntEps)
    return; // Bound.

  // Most fractional integer variable.
  size_t BranchVar = SIZE_MAX;
  double BestFrac = IntEps;
  for (size_t Var : Ctx.IntegerVars) {
    double Value = Relaxed.X[Var];
    double Frac = std::fabs(Value - std::round(Value));
    if (Frac > BestFrac) {
      BestFrac = Frac;
      BranchVar = Var;
    }
  }
  if (BranchVar == SIZE_MAX) {
    // Integral: new incumbent.
    if (!Ctx.HaveIncumbent || Relaxed.Objective > Ctx.Result.Objective) {
      Ctx.HaveIncumbent = true;
      Ctx.Result.Status = IlpStatus::Optimal;
      Ctx.Result.Objective = Relaxed.Objective;
      Ctx.Result.X = Relaxed.X;
    }
    return;
  }

  double Value = Relaxed.X[BranchVar];
  // Down branch: x <= floor(v).
  {
    std::vector<double> Row(LP.NumVars, 0.0);
    Row[BranchVar] = 1.0;
    LP.addRow(Row, std::floor(Value));
    branch(LP, Ctx);
    LP.Rows.pop_back();
    LP.Rhs.pop_back();
  }
  if (Ctx.Result.Status == IlpStatus::TimedOut)
    return;
  // Up branch: -x <= -ceil(v).
  {
    std::vector<double> Row(LP.NumVars, 0.0);
    Row[BranchVar] = -1.0;
    LP.addRow(Row, -std::ceil(Value));
    branch(LP, Ctx);
    LP.Rows.pop_back();
    LP.Rhs.pop_back();
  }
}

} // namespace

IlpResult sks::solveIlp(const LinearProgram &LP,
                        const std::vector<size_t> &IntegerVars,
                        double TimeoutSeconds, const StopToken &Stop) {
  LinearProgram Work = LP;
  BnbContext Ctx(IntegerVars, TimeoutSeconds, Stop);
  branch(Work, Ctx);
  if (Ctx.HaveIncumbent)
    Ctx.Result.Status = IlpStatus::Optimal;
  return Ctx.Result;
}
