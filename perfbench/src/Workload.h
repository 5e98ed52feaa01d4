//===- perfbench/src/Workload.h - One seeded benchmark workload -*- C++ -*-===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interface Main.cpp drives. A workload draws its fixed operation
/// list from the seed when it is constructed, does everything else that
/// precedes the first timed operation in setup(), and then runs the list
/// once per runPass(). All workloads are closed-loop: a caller issues its
/// next operation only after the previous one returned.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOAD_H
#define PERFBENCH_WORKLOAD_H

#include "Common.h"
#include "Trace.h"

#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct WorkloadOptions {
  uint64_t Seed = 1;
  /// A much smaller operation list, for the benchmark's own tests.
  bool Smoke = false;
  /// Directory of the prebuilt .sks kernels (the repository's
  /// kernels_prebuilt/).
  std::string KernelsDir;
  /// Directory for the service workload's cache directories.
  std::string TempDir;
};

class Workload {
public:
  virtual ~Workload() = default;

  /// Names of the operation classes; OpSample::Class indexes this list.
  virtual std::vector<std::string> classNames() const = 0;

  /// One line per operation of the seeded list, in issue order.
  virtual std::vector<std::string> describeOps() const = 0;

  /// Layer prefixes ("search", "sortlib", ...) whose per-layer metrics
  /// this workload's own operations produce. The metrics of every other
  /// layer are 0 on this workload: it makes no call into them.
  virtual std::vector<std::string> layers() const = 0;

  /// Everything before the first timed operation: inputs, kernels, cache
  /// warm-up and one untimed warm-up operation. \returns false when the
  /// set-up itself failed (the run then reports nothing).
  virtual bool setup(Tracer *T) = 0;

  /// Runs the operation list once, filling \p Pass. Outputs are checked
  /// outside the timed spans. \p T is non-null in the traced phase, which
  /// also collects the counters layerMetrics() reads.
  virtual void runPass(Tracer *T, uint64_t PassNo, PassResult &Pass) = 0;

  /// Per-layer metrics from the traced passes' \p Spans and counters.
  virtual void layerMetrics(const std::vector<SpanRecord> &Spans,
                            MetricMap &Out) = 0;
};

std::unique_ptr<Workload> makeSynthAll(const WorkloadOptions &Opts);
std::unique_ptr<Workload> makeSortMix(const WorkloadOptions &Opts);
std::unique_ptr<Workload> makeServeMix(const WorkloadOptions &Opts);

/// Operation ids are unique across a run: pass number times this, plus
/// the operation's index in the list (offset by one so 0 stays "none").
inline constexpr uint64_t OpsPerPassStride = 1000000;

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_H
