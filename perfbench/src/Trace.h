//===- perfbench/src/Trace.h - Spans around calls into layers --*- C++ -*-===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's instrument. A span brackets one call from benchmark
/// code into a layer of the system ("search.synthesize",
/// "sortlib.quicksort", ...) or one whole timed operation ("op"). Spans
/// nest per thread: a span's parent is the innermost span its thread has
/// open, and it inherits that parent's operation id. Spans are kept in
/// memory and written out once, when the run ends.
///
/// No span is recorded inside the system itself; the per-layer numbers are
/// therefore the time of the layer's public entry points as a caller sees
/// them.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include "Common.h"

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char *Name = ""; ///< A string literal: the layer entry point.
  double Start = 0;      ///< wallNow() seconds.
  double End = 0;
  int64_t Parent = -1; ///< Index of the enclosing span, -1 for a root.
  uint64_t OpId = 0;   ///< Operation the span belongs to; 0 outside one.
  uint32_t Thread = 0; ///< Small per-thread number.

  double seconds() const { return End - Start; }
};

class Tracer {
public:
  /// Opens a span on the calling thread. \p OpId 0 inherits the parent's.
  size_t open(const char *Name, uint64_t OpId);
  void close(size_t Index);

  /// Snapshot of every span recorded so far.
  std::vector<SpanRecord> spans() const;

  /// Writes the spans as JSON lines (times in microseconds from the first
  /// span), each tagged with \p Source. \returns false on I/O failure.
  bool append(const std::string &Path, const std::string &Source) const;

private:
  mutable std::mutex Mutex; ///< Guards Spans.
  std::vector<SpanRecord> Spans;
};

/// Durations in seconds of the spans named \p Name.
std::vector<double> spanSeconds(const std::vector<SpanRecord> &Spans,
                                const char *Name);

/// RAII span; does nothing when the tracer is null (the untraced run).
class Span {
public:
  Span(Tracer *T, const char *Name, uint64_t OpId = 0)
      : T(T), Index(T ? T->open(Name, OpId) : 0) {}
  ~Span() {
    if (T)
      T->close(Index);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  Tracer *T;
  size_t Index;
};

/// Runs \p Fn as one timed operation: records its latency in \p Pass and,
/// with \p Accumulate (single-caller workloads, whose timed phase is the
/// sum of their operations), adds its wall and CPU time to the pass
/// totals. Under a tracer the operation is an "op" span that the layer
/// spans opened by \p Fn nest under.
template <typename Callable>
void timeOp(Tracer *T, PassResult &Pass, uint64_t OpId, unsigned Class,
            bool Accumulate, Callable &&Fn) {
  Span Op(T, "op", OpId);
  double Cpu0 = Accumulate ? cpuNow() : 0;
  double Wall0 = wallNow();
  Fn();
  double Wall = wallNow() - Wall0;
  if (Accumulate) {
    Pass.WallS += Wall;
    Pass.CpuS += cpuNow() - Cpu0;
  }
  Pass.Ops.push_back({Wall * 1e3, Class});
}

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
