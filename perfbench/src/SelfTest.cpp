//===- perfbench/src/SelfTest.cpp - The output checkers' own test ---------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --self-test: feeds every output checker a right output, which
/// it must accept, and wrong ones, which it must count as failures: a
/// wrong kernel, an overlong kernel, unsorted arrays, a wrong selection,
/// a wrong top-k, a payload that left its key, and forged cache replies.
///
//===----------------------------------------------------------------------===//

#include "Checks.h"

#include "kernels/KernelIO.h"
#include "search/Search.h"
#include "service/Protocol.h"

#include <algorithm>
#include <cstdio>

using namespace perfbench;
using namespace sks;

namespace {

int Failures = 0;

void expect(bool Accept, const std::string &Why, const char *Case) {
  bool Accepted = Why.empty();
  std::printf("%-44s %s%s%s\n", Case, Accepted ? "accepted" : "rejected",
              Accepted ? "" : ": ", Why.c_str());
  if (Accepted != Accept) {
    std::printf("  ^ UNEXPECTED: should be %s\n",
                Accept ? "accepted" : "rejected");
    ++Failures;
  }
}

std::string replyFor(const SynthRequest &Req, const Program &P,
                     SynthStatus Status, bool Verified) {
  SynthOutcome O;
  O.BackendName = "enum";
  O.Status = Status;
  O.Kernel = P;
  O.Verified = Verified;
  return responseLine("7", O, Req.N, true, 0.0001);
}

} // namespace

int perfbench::runSelfTest(const std::string &KernelsDir) {
  SavedKernel K3;
  if (!loadKernel(KernelsDir + "/sort3_cmov.sks", K3)) {
    std::printf("cannot load %s/sort3_cmov.sks\n", KernelsDir.c_str());
    return 1;
  }
  Machine M3(MachineKind::Cmov, 3);
  const unsigned Bound = networkUpperBound(MachineKind::Cmov, 3);

  // Kernels.
  expect(true, checkKernel(M3, K3.P, Bound), "kernel: prebuilt n=3");
  Program Dropped = K3.P;
  Dropped.pop_back();
  expect(false, checkKernel(M3, Dropped, Bound), "kernel: last instr dropped");
  Program Swapped = K3.P;
  std::swap(Swapped[1], Swapped[4]);
  expect(false, checkKernel(M3, Swapped, Bound), "kernel: instrs swapped");
  Program Padded = K3.P;
  Padded.insert(Padded.begin(), Padded.front()); // A repeated mov: correct.
  expect(false, checkKernel(M3, Padded, Bound), "kernel: correct, length 12");
  expect(false, checkKernel(M3, {}, Bound), "kernel: empty");

  // Arrays.
  std::vector<int32_t> In = {5, -3, 9, 9, 0, 12, -7, 4};
  std::vector<int32_t> Sorted = In;
  std::sort(Sorted.begin(), Sorted.end());
  expect(true, checkSorted(In, Sorted), "sort: sorted");
  std::vector<int32_t> Unsorted = Sorted;
  std::swap(Unsorted[2], Unsorted[3]);
  expect(false, checkSorted(In, Unsorted), "sort: two elements swapped");
  std::vector<int32_t> Lost = Sorted;
  Lost[0] = Lost[1];
  expect(false, checkSorted(In, Lost), "sort: sorted but an element lost");

  std::vector<uint32_t> Pay = {0, 1, 2, 3, 4, 5, 6, 7};
  std::vector<std::pair<int32_t, uint32_t>> Pairs;
  for (size_t I = 0; I != In.size(); ++I)
    Pairs.push_back({In[I], Pay[I]});
  std::sort(Pairs.begin(), Pairs.end());
  std::vector<int32_t> Keys;
  std::vector<uint32_t> Payloads;
  for (auto &[Key, Payload] : Pairs)
    Keys.push_back(Key), Payloads.push_back(Payload);
  expect(true, checkKeyValSorted(In, Pay, Keys, Payloads), "keyval: sorted");
  std::swap(Payloads[0], Payloads[1]);
  expect(false, checkKeyValSorted(In, Pay, Keys, Payloads),
         "keyval: payloads left their keys");

  std::vector<int32_t> Sel = Sorted;
  expect(true, checkSelected(In, Sel, 4), "select: fully sorted output");
  std::swap(Sel[3], Sel[4]);
  expect(false, checkSelected(In, Sel, 4), "select: wrong element at rank");
  std::vector<int32_t> Top = Sorted;
  std::reverse(Top.begin(), Top.end());
  expect(true, checkTopK(In, Top, 3), "topk: descending output");
  std::swap(Top[0], Top[1]);
  expect(false, checkTopK(In, Top, 3), "topk: top two out of order");

  // Replies.
  SynthRequest Req;
  Req.N = 3;
  Req.BackendPolicy = "enum";
  unsigned Len = 0;
  expect(true,
         checkReply(Req, "7", replyFor(Req, K3.P, SynthStatus::Optimal, true),
                    Len),
         "reply: verified optimal kernel");
  expect(false,
         checkReply(Req, "7",
                    replyFor(Req, Dropped, SynthStatus::Optimal, true), Len),
         "reply: forged wrong kernel");
  expect(false,
         checkReply(Req, "7",
                    replyFor(Req, K3.P, SynthStatus::Rejected, false), Len),
         "reply: rejected");
  expect(false,
         checkReply(Req, "7", replyFor(Req, K3.P, SynthStatus::Optimal, false),
                    Len),
         "reply: not marked verified");
  expect(false,
         checkReply(Req, "8", replyFor(Req, K3.P, SynthStatus::Optimal, true),
                    Len),
         "reply: answers another request id");
  SynthRequest Other = Req;
  Other.GoalPred = GoalSpec::selectK(2);
  expect(false,
         checkReply(Other, "7",
                    replyFor(Other, {K3.P.begin(), K3.P.begin() + 2},
                             SynthStatus::Optimal, true),
                    Len),
         "reply: kernel for another goal");

  std::printf("self-test: %s (%d unexpected)\n", Failures ? "FAILED" : "ok",
              Failures);
  return Failures ? 1 : 0;
}
