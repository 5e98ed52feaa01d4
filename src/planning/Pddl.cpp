//===- planning/Pddl.cpp - PDDL emission ------------------------------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "planning/Pddl.h"

#include "planning/PlanSynth.h"
#include "support/Permutations.h"

#include <cstdio>

using namespace sks;

namespace {

/// Fact predicates: (val eE rR vV) and (lt eE) / (gt eE).
std::string valAtom(size_t Ex, unsigned Reg, unsigned Value) {
  char Buf[48];
  std::snprintf(Buf, sizeof(Buf), "(val e%zu r%u v%u)", Ex, Reg, Value);
  return Buf;
}

std::string flagAtom(const char *Name, size_t Ex) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "(%s e%zu)", Name, Ex);
  return Buf;
}

} // namespace

std::string sks::pddlDomain(const Machine &M) {
  const unsigned NumValues = M.numValues();
  const size_t NumExamples = factorial(M.numData());
  std::string Out;
  Out += "(define (domain sorting-kernel-synthesis)\n";
  Out += "  (:requirements :strips :conditional-effects :negative-"
         "preconditions)\n";
  Out += "  (:predicates\n";
  for (size_t Ex = 0; Ex != NumExamples; ++Ex) {
    for (unsigned Reg = 0; Reg != M.numRegs(); ++Reg)
      for (unsigned V = 0; V != NumValues; ++V)
        Out += "    " + valAtom(Ex, Reg, V) + "\n";
    if (M.kind() == MachineKind::Cmov) {
      Out += "    " + flagAtom("lt", Ex) + "\n";
      Out += "    " + flagAtom("gt", Ex) + "\n";
    }
  }
  Out += "  )\n";

  for (const Instr &Ins : M.instructions()) {
    std::string Name = toString(Ins, M.numData());
    for (char &Ch : Name)
      if (Ch == ' ')
        Ch = '-';
    Out += "  (:action " + Name + "\n    :effect (and\n";
    for (size_t Ex = 0; Ex != NumExamples; ++Ex) {
      switch (Ins.Op) {
      case Opcode::Mov:
      case Opcode::CMovL:
      case Opcode::CMovG:
        for (unsigned VS = 0; VS != NumValues; ++VS)
          for (unsigned VD = 0; VD != NumValues; ++VD) {
            if (VS == VD)
              continue;
            std::string Cond = valAtom(Ex, Ins.Src, VS) + " " +
                               valAtom(Ex, Ins.Dst, VD);
            if (Ins.Op == Opcode::CMovL)
              Cond.append(" ").append(flagAtom("lt", Ex));
            if (Ins.Op == Opcode::CMovG)
              Cond.append(" ").append(flagAtom("gt", Ex));
            Out += "      (when (and " + Cond + ") (and " +
                   valAtom(Ex, Ins.Dst, VS) + " (not " +
                   valAtom(Ex, Ins.Dst, VD) + ")))\n";
          }
        break;
      case Opcode::Cmp:
        for (unsigned VA = 0; VA != NumValues; ++VA)
          for (unsigned VB = 0; VB != NumValues; ++VB) {
            std::string Cond = valAtom(Ex, Ins.Dst, VA) + " " +
                               valAtom(Ex, Ins.Src, VB);
            std::string Effect;
            if (VA < VB)
              Effect = flagAtom("lt", Ex) + " (not " + flagAtom("gt", Ex) +
                       ")";
            else if (VA > VB)
              Effect = flagAtom("gt", Ex) + " (not " + flagAtom("lt", Ex) +
                       ")";
            else
              Effect = "(not " + flagAtom("lt", Ex) + ") (not " +
                       flagAtom("gt", Ex) + ")";
            Out += "      (when (and " + Cond + ") (and " + Effect + "))\n";
          }
        break;
      case Opcode::Min:
      case Opcode::Max:
        for (unsigned VD = 0; VD != NumValues; ++VD)
          for (unsigned VS = 0; VS != NumValues; ++VS) {
            unsigned Result = Ins.Op == Opcode::Min ? std::min(VD, VS)
                                                    : std::max(VD, VS);
            if (Result == VD)
              continue;
            Out += "      (when (and " + valAtom(Ex, Ins.Dst, VD) + " " +
                   valAtom(Ex, Ins.Src, VS) + ") (and " +
                   valAtom(Ex, Ins.Dst, Result) + " (not " +
                   valAtom(Ex, Ins.Dst, VD) + ")))\n";
          }
        break;
      }
    }
    Out += "    ))\n";
  }
  Out += ")\n";
  return Out;
}

std::string sks::pddlProblem(const Machine &M) {
  std::vector<std::vector<int>> Examples = allPermutations(M.numData());
  std::string Out;
  Out += "(define (problem sort-" + std::to_string(M.numData()) + ")\n";
  Out += "  (:domain sorting-kernel-synthesis)\n  (:init\n";
  for (size_t Ex = 0; Ex != Examples.size(); ++Ex)
    for (unsigned Reg = 0; Reg != M.numRegs(); ++Reg) {
      unsigned V = Reg < M.numData()
                       ? static_cast<unsigned>(Examples[Ex][Reg])
                       : 0;
      Out += "    " + valAtom(Ex, Reg, V) + "\n";
    }
  Out += "  )\n  (:goal (and\n";
  for (size_t Ex = 0; Ex != Examples.size(); ++Ex)
    for (unsigned Reg = 0; Reg != M.numData(); ++Reg)
      Out += "    " + valAtom(Ex, Reg, Reg + 1) + "\n";
  Out += "  ))\n)\n";
  return Out;
}

bool sks::writePddl(const Machine &M, const std::string &DomainPath,
                    const std::string &ProblemPath) {
  std::FILE *Domain = std::fopen(DomainPath.c_str(), "w");
  if (!Domain)
    return false;
  std::string DomainText = pddlDomain(M);
  std::fwrite(DomainText.data(), 1, DomainText.size(), Domain);
  std::fclose(Domain);

  std::FILE *Problem = std::fopen(ProblemPath.c_str(), "w");
  if (!Problem)
    return false;
  std::string ProblemText = pddlProblem(M);
  std::fwrite(ProblemText.data(), 1, ProblemText.size(), Problem);
  std::fclose(Problem);
  return true;
}
