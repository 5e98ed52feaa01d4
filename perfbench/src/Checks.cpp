//===- perfbench/src/Checks.cpp - Independent output checks ---------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"

#include "verify/Verify.h"

#include <algorithm>
#include <functional>

using namespace perfbench;
using namespace sks;

unsigned perfbench::paperOptimalLength(MachineKind Kind, unsigned N,
                                       const GoalSpec &Goal) {
  if (Kind != MachineKind::Cmov || !Goal.isSort())
    return 0;
  return N == 3 ? 11 : N == 4 ? 20 : 0;
}

std::string perfbench::checkKernel(const Machine &M, const Program &P,
                                   unsigned MaxLength) {
  if (P.empty())
    return "no kernel";
  if (!isCorrectKernel(M, P))
    return "kernel fails the goal on some permutation";
  if (P.size() > MaxLength)
    return "kernel length " + std::to_string(P.size()) + " exceeds bound " +
           std::to_string(MaxLength);
  unsigned Paper = paperOptimalLength(M.kind(), M.numData(), M.goal());
  if (Paper && P.size() != Paper)
    return "kernel length " + std::to_string(P.size()) +
           ", the paper's optimum is " + std::to_string(Paper);
  return "";
}

std::string perfbench::checkSorted(const std::vector<int32_t> &In,
                                   const std::vector<int32_t> &Out) {
  std::vector<int32_t> Ref = In;
  std::sort(Ref.begin(), Ref.end());
  return Out == Ref ? "" : "output differs from std::sort";
}

std::string perfbench::checkKeyValSorted(const std::vector<int32_t> &InKeys,
                                         const std::vector<uint32_t> &InPayloads,
                                         const std::vector<int32_t> &Keys,
                                         const std::vector<uint32_t> &Payloads) {
  std::vector<std::pair<int32_t, uint32_t>> Ref(InKeys.size());
  for (size_t I = 0; I != Ref.size(); ++I)
    Ref[I] = {InKeys[I], InPayloads[I]};
  std::sort(Ref.begin(), Ref.end());
  if (Keys.size() != Ref.size() || Payloads.size() != Ref.size())
    return "output length differs from the input";
  for (size_t I = 0; I != Ref.size(); ++I)
    if (Keys[I] != Ref[I].first || Payloads[I] != Ref[I].second)
      return "pair " + std::to_string(I) + " differs from std::sort";
  return "";
}

static bool isPermutation(const std::vector<int32_t> &A,
                          const std::vector<int32_t> &B) {
  std::vector<int32_t> SA = A, SB = B;
  std::sort(SA.begin(), SA.end());
  std::sort(SB.begin(), SB.end());
  return SA == SB;
}

std::string perfbench::checkSelected(const std::vector<int32_t> &In,
                                     const std::vector<int32_t> &Out,
                                     size_t K) {
  if (K < 1 || K > In.size() || Out.size() != In.size())
    return "rank or length out of range";
  std::vector<int32_t> Ref = In;
  std::nth_element(Ref.begin(), Ref.begin() + (K - 1), Ref.end());
  int32_t Kth = Ref[K - 1];
  if (Out[K - 1] != Kth)
    return "element " + std::to_string(K) + " differs from std::nth_element";
  for (size_t I = 0; I != Out.size(); ++I)
    if ((I < K - 1 && Out[I] > Kth) || (I > K - 1 && Out[I] < Kth))
      return "not partitioned around the selected element";
  return isPermutation(In, Out) ? "" : "output is not a permutation of input";
}

std::string perfbench::checkTopK(const std::vector<int32_t> &In,
                                 const std::vector<int32_t> &Out, size_t K) {
  if (K < 1 || K > In.size() || Out.size() != In.size())
    return "count or length out of range";
  std::vector<int32_t> Ref = In;
  std::partial_sort(Ref.begin(), Ref.begin() + K, Ref.end(),
                    std::greater<int32_t>());
  if (!std::equal(Ref.begin(), Ref.begin() + K, Out.begin()))
    return "top " + std::to_string(K) + " differs from std::partial_sort";
  return isPermutation(In, Out) ? "" : "output is not a permutation of input";
}

/// \returns the raw value of top-level field \p Key in a flat reply line
/// (strings unescaped, other tokens verbatim); false when absent.
static bool replyField(const std::string &Line, const std::string &Key,
                       std::string &Out) {
  std::string Needle = "\"" + Key + "\": ";
  size_t Pos = Line.find(Needle);
  if (Pos == std::string::npos)
    return false;
  Pos += Needle.size();
  Out.clear();
  if (Pos < Line.size() && Line[Pos] == '"') {
    for (++Pos; Pos < Line.size(); ++Pos) {
      char C = Line[Pos];
      if (C == '"')
        return true;
      if (C == '\\' && Pos + 1 < Line.size()) {
        char E = Line[++Pos];
        Out.push_back(E == 'n' ? '\n' : E == 't' ? '\t' : E == 'r' ? '\r' : E);
        continue;
      }
      Out.push_back(C);
    }
    return false;
  }
  size_t End = Line.find_first_of(",}", Pos);
  if (End == std::string::npos)
    return false;
  Out = Line.substr(Pos, End - Pos);
  return true;
}

std::string perfbench::checkReply(const SynthRequest &Req,
                                  const std::string &Id,
                                  const std::string &Line,
                                  unsigned &KernelLen) {
  std::string IdText, Status, Verified, Kernel;
  if (!replyField(Line, "id", IdText) || IdText != Id)
    return "reply id does not match the request";
  if (!replyField(Line, "status", Status) || Status != "optimal")
    return "reply status is '" + Status + "', expected 'optimal'";
  if (!replyField(Line, "verified", Verified) || Verified != "true")
    return "reply is not marked verified";
  if (!replyField(Line, "kernel", Kernel))
    return "reply carries no kernel";
  Program P;
  if (!parseProgram(Kernel, Req.N, P))
    return "reply kernel does not parse";
  KernelLen = static_cast<unsigned>(P.size());
  Machine M(Req.Kind, Req.N, Req.Scratch, Req.GoalPred);
  std::string Why = checkKernel(M, P, Req.lengthBound());
  return Why.empty() ? "" : "reply " + Why;
}
