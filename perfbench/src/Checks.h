//===- perfbench/src/Checks.h - Independent output checks ------*- C++ -*-===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reference checks every benchmark operation's output goes through,
/// outside the timed span. Each returns an empty string when the output is
/// right and a one-line reason when it is not; the caller counts the
/// reason as a failed operation.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include "driver/Backend.h"
#include "machine/Machine.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The paper's optimal cmov sort-kernel lengths (section 5.2): 11 for
/// n = 3, 20 for n = 4; 0 where the paper pins none.
unsigned paperOptimalLength(sks::MachineKind Kind, unsigned N,
                            const sks::GoalSpec &Goal);

/// \p P must establish \p M's goal on all n! inputs (isCorrectKernel), fit
/// within \p MaxLength, and have the paper's length where it pins one.
std::string checkKernel(const sks::Machine &M, const sks::Program &P,
                        unsigned MaxLength);

/// \p Out must equal std::sort of \p In.
std::string checkSorted(const std::vector<int32_t> &In,
                        const std::vector<int32_t> &Out);

/// (\p Keys, \p Payloads) must equal std::sort of the input pairs ordered
/// by key, then payload (the order of sortKeyVal's packed lanes).
std::string checkKeyValSorted(const std::vector<int32_t> &InKeys,
                              const std::vector<uint32_t> &InPayloads,
                              const std::vector<int32_t> &Keys,
                              const std::vector<uint32_t> &Payloads);

/// \p Out must be a permutation of \p In whose element \p K - 1 is the one
/// std::nth_element puts there, with no larger element before it and no
/// smaller one after it.
std::string checkSelected(const std::vector<int32_t> &In,
                          const std::vector<int32_t> &Out, size_t K);

/// \p Out[0, K) must equal the K largest of \p In in descending order
/// (std::partial_sort with std::greater), and \p Out a permutation of \p In.
std::string checkTopK(const std::vector<int32_t> &In,
                      const std::vector<int32_t> &Out, size_t K);

/// A service reply line (service/Protocol.h responseLine) for \p Req must
/// carry a verified optimal kernel, correlation id \p Id, and a kernel
/// text that re-verifies under checkKernel for the requested machine.
/// \p KernelLen receives the reply's kernel length when it parses.
std::string checkReply(const sks::SynthRequest &Req, const std::string &Id,
                       const std::string &Line, unsigned &KernelLen);

/// perfbench --self-test: every checker above must accept a right output
/// and reject wrong ones. \returns the process exit code.
int runSelfTest(const std::string &KernelsDir);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_H
