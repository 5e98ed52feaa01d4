//===- perfbench/src/Common.h - Clocks, quantiles, run records --*- C++ -*-===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared plumbing of the repository benchmark: the clocks every workload
/// times with, the quantile rule every metric uses, and the records one
/// timed pass hands back to Main.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock (arbitrary epoch).
double wallNow();

/// CPU seconds (user + system) consumed by every thread of the process.
double cpuNow();

/// getrusage high-water mark of the process's resident set, in MB.
double peakRssMb();

/// Quantile \p Q in [0, 1] of \p Values, interpolating linearly between
/// the two closest ranks; 0 when empty.
double quantile(std::vector<double> Values, double Q);
inline double median(std::vector<double> Values) {
  return quantile(std::move(Values), 0.5);
}

/// Derives an independent stream seed from the run seed, so adding a
/// stream to one workload never shifts another's inputs.
uint64_t streamSeed(uint64_t Seed, uint64_t Stream);

/// One timed operation: its latency and which of the workload's operation
/// classes it belongs to.
struct OpSample {
  double Ms = 0;
  unsigned Class = 0;
};

/// What one timed pass over a workload's operation list produced.
struct PassResult {
  /// Wall and process-CPU seconds of the timed phase only (setup,
  /// per-pass preparation and output checks excluded).
  double WallS = 0;
  double CpuS = 0;
  std::vector<OpSample> Ops;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Length of every kernel the pass returned or used.
  std::vector<unsigned> KernelLens;
};

/// Metric name -> value, as printed on the result line.
using MetricMap = std::map<std::string, double>;

/// Counts one failed operation and prints why on stderr.
void reportFailure(PassResult &Pass, const std::string &What);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
