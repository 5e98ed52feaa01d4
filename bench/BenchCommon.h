//===- bench/BenchCommon.h - Shared benchmark-harness helpers --*- C++ -*-===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the per-table benchmark binaries: the paper's best
/// enumerative configuration, kernel-workload generators, a
/// google-benchmark result collector used to compute the paper's rank
/// columns, and uniform headers. Every binary prints which paper table or
/// figure it regenerates and writes machine-readable CSVs next to the
/// binary where the paper has a figure.
///
//===----------------------------------------------------------------------===//

#ifndef SKS_BENCH_BENCHCOMMON_H
#define SKS_BENCH_BENCHCOMMON_H

#include "driver/Backend.h"
#include "machine/BatchApply.h"
#include "search/Search.h"
#include "state/Canonicalize.h"
#include "support/Env.h"
#include "support/Rng.h"
#include "support/Table.h"
#include "support/Timing.h"

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

/// Short git revision baked in by bench/CMakeLists.txt (configure time);
/// "unknown" outside a git checkout.
#ifndef SKS_GIT_SHA
#define SKS_GIT_SHA "unknown"
#endif

namespace sks {
namespace bench {

/// The paper's configuration (III): permutation-count heuristic +
/// assignment viability check + cut k=1, bounded by the sorting-network
/// length (section 3.3's "initially given length bound").
inline SearchOptions bestEnumConfig(MachineKind Kind, unsigned N) {
  SearchOptions Opts;
  Opts.Heuristic = HeuristicKind::PermCount;
  Opts.UseViability = true;
  Opts.Cut = CutConfig::mult(1.0);
  Opts.MaxLength = networkUpperBound(Kind, N);
  return Opts;
}

/// Prints the standard banner tying a binary to its paper artifact.
inline void banner(const char *Binary, const char *Reproduces) {
  std::printf("==============================================================="
              "=\n%s\nreproduces: %s\n",
              Binary, Reproduces);
  std::printf("mode: %s (set SKS_FULL=1 for the paper-scale run)\n"
              "================================================================"
              "\n\n",
              isFullRun() ? "FULL" : "default");
}

/// Standalone workload (section 5.3): arrays of length n with values in
/// -10000..10000.
inline std::vector<int32_t> standaloneWorkload(unsigned N, size_t Arrays,
                                               uint64_t Seed) {
  Rng R(Seed);
  std::vector<int32_t> Data(N * Arrays);
  for (int32_t &V : Data)
    V = static_cast<int32_t>(R.range(-10000, 10000));
  return Data;
}

/// Embedded workload (section 5.3): arrays of random length up to 20000.
inline std::vector<std::vector<int32_t>>
embeddedWorkload(size_t Arrays, size_t MaxLen, uint64_t Seed) {
  Rng R(Seed);
  std::vector<std::vector<int32_t>> Out(Arrays);
  for (auto &Array : Out) {
    Array.resize(1 + R.below(MaxLen));
    for (int32_t &V : Array)
      V = static_cast<int32_t>(R.range(-10000, 10000));
  }
  return Out;
}

/// Measures a callable: median-of-\p Repeats wall time of Fn(), in
/// milliseconds. Fn must consume its input freshly each call.
template <typename Callable>
double measureMillis(Callable &&Fn, int Repeats = 5) {
  std::vector<double> Times;
  for (int Rep = 0; Rep != Repeats; ++Rep) {
    Stopwatch Timer;
    Fn();
    Times.push_back(Timer.millis());
  }
  std::sort(Times.begin(), Times.end());
  return Times[Times.size() / 2];
}

/// Common command-line flags of the benchmark binaries:
///   --json <file>  write machine-readable result rows to <file>
///   --smoke        run only the fast subset (the ctest smoke entries)
struct BenchArgs {
  std::string JsonPath;
  bool Smoke = false;
};

inline BenchArgs parseBenchArgs(int Argc, char **Argv) {
  BenchArgs Args;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--json" && I + 1 < Argc)
      Args.JsonPath = Argv[++I];
    else if (Arg == "--smoke")
      Args.Smoke = true;
    else
      std::fprintf(stderr, "warning: unknown argument '%s'\n", Arg.c_str());
  }
  return Args;
}

/// \returns the compiler id + version this binary was built with, for the
/// build-attribution fields of the JSON result rows.
inline std::string compilerVersionString() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return "gcc " + std::to_string(__GNUC__) + "." +
         std::to_string(__GNUC_MINOR__) + "." +
         std::to_string(__GNUC_PATCHLEVEL__);
#else
  return "unknown";
#endif
}

/// Backslash-escapes quotes and backslashes for embedding in JSON string
/// literals.
inline std::string jsonEscaped(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out.push_back('\\');
    Out.push_back(C);
  }
  return Out;
}

/// Formats a driver outcome as a table cell: "optimal len 11 in 987 ms",
/// "timeout", "cancelled", ... Unverified success never reaches here — the
/// driver's verification gate demotes it before reporting.
inline std::string outcomeCell(const SynthOutcome &O) {
  if (O.Status == SynthStatus::Found || O.Status == SynthStatus::Optimal)
    return std::string(statusName(O.Status)) + " len " +
           std::to_string(O.Kernel.size()) + " in " + formatDuration(O.Seconds);
  return statusName(O.Status);
}

/// \returns the named backend stat, or 0 when the backend did not emit it.
inline uint64_t outcomeStat(const SynthOutcome &O, const char *Key) {
  for (const auto &KV : O.Stats)
    if (KV.first == Key)
      return KV.second;
  return 0;
}

/// Collects driver outcomes and writes the uniform backend JSON schema
/// shared by the substrate tables and bench_portfolio: one object per row
/// with {"config", "goal", "backend", "status", "seconds", "verified",
/// "length", "stats": {...}} plus the same build attribution as
/// JsonResultWriter. "goal" names the goal predicate (machine/Goal.h);
/// "sort" for every classic row.
class BackendJsonWriter {
public:
  /// \p Goal names the goal predicate the row's kernel establishes;
  /// "sort" (the paper's objective) unless the row says otherwise.
  void add(const std::string &Config, const SynthOutcome &O,
           const std::string &Goal = "sort") {
    Rows.push_back({Config, Goal, O});
  }

  /// Writes the collected rows; no-op when \p Path is empty. \returns
  /// false when the file could not be written.
  bool write(const std::string &Path) const {
    if (Path.empty())
      return true;
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    std::fprintf(F, "[\n");
    for (size_t I = 0; I != Rows.size(); ++I) {
      const SynthOutcome &O = Rows[I].Outcome;
      std::fprintf(F,
                   "  {\"config\": \"%s\", \"goal\": \"%s\", "
                   "\"backend\": \"%s\", "
                   "\"status\": \"%s\", \"seconds\": %.6f, "
                   "\"verified\": %s, \"length\": %zu, "
                   "\"git_sha\": \"%s\", \"compiler\": \"%s\", \"stats\": {",
                   jsonEscaped(Rows[I].Config).c_str(),
                   jsonEscaped(Rows[I].Goal).c_str(),
                   jsonEscaped(O.BackendName).c_str(), statusName(O.Status),
                   O.Seconds, O.Verified ? "true" : "false", O.Kernel.size(),
                   jsonEscaped(SKS_GIT_SHA).c_str(),
                   jsonEscaped(compilerVersionString()).c_str());
      for (size_t S = 0; S != O.Stats.size(); ++S)
        std::fprintf(F, "%s\"%s\": %llu", S ? ", " : "",
                     jsonEscaped(O.Stats[S].first).c_str(),
                     static_cast<unsigned long long>(O.Stats[S].second));
      std::fprintf(F, "}}%s\n", I + 1 == Rows.size() ? "" : ",");
    }
    std::fprintf(F, "]\n");
    std::fclose(F);
    return true;
  }

private:
  struct Row {
    std::string Config;
    std::string Goal;
    SynthOutcome Outcome;
  };
  std::vector<Row> Rows;
};

/// Runs \p B on \p Req and records the outcome under \p Config. The
/// substrate tables share this runner so every row passes the driver's
/// verification gate and lands in the uniform JSON schema.
inline SynthOutcome runBackendRow(const Backend &B, const SynthRequest &Req,
                                  const std::string &Config,
                                  BackendJsonWriter &Json) {
  SynthOutcome O = B.run(Req);
  Json.add(Config, O);
  return O;
}

/// Collects benchmark result rows and writes them as a JSON array, one
/// object per configuration: {"config", "goal", "seconds", "states",
/// "peak_bytes", "found", "length", "timed_out", "memory_limited",
/// "syntactic_pruned"} plus build
/// attribution ("git_sha", "compiler", "nproc", "batch_simd",
/// "canon_simd") and —
/// when SearchOptions::ProfilePipeline was on — the per-stage "*_ns"
/// counters. peak_bytes is the state-store high-water mark
/// (SearchStats::PeakResidentBytes). timed_out/memory_limited make a
/// found=false row a machine-readable infeasibility certificate: they
/// name the budget that bound. Used by CI and the smoke ctest entries to
/// assert on machine-readable output instead of scraping tables, and to
/// tie every BENCH_*.json trajectory to a build.
class JsonResultWriter {
public:
  /// \p Goal names the goal predicate the row searched under; "sort"
  /// unless the row says otherwise.
  void add(const std::string &Config, const SearchResult &R,
           const std::string &Goal = "sort") {
    Rows.push_back(Row{Config, Goal, R.Stats.Seconds, R.Stats.StatesExpanded,
                       R.Stats.PeakResidentBytes, R.Found,
                       R.Found ? R.OptimalLength : 0, R.Stats.TimedOut,
                       R.Stats.MemoryLimited, R.Stats.SyntacticPruned,
                       R.Stats.ApplyNanos, R.Stats.CanonNanos,
                       R.Stats.ViabilityNanos, R.Stats.MergeNanos});
  }

  /// Records the measured translation-validation cost (nanoseconds per
  /// validateJitKernel call) on the most recently added row; it shows up
  /// as "validate_ns". No-op before the first add().
  void addValidateNanos(uint64_t Nanos) {
    if (!Rows.empty())
      Rows.back().ValidateNs = Nanos;
  }

  /// Writes the collected rows; no-op when \p Path is empty. \returns
  /// false when the file could not be written.
  bool write(const std::string &Path) const {
    if (Path.empty())
      return true;
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    std::fprintf(F, "[\n");
    for (size_t I = 0; I != Rows.size(); ++I) {
      const Row &R = Rows[I];
      std::fprintf(F,
                   "  {\"config\": \"%s\", \"goal\": \"%s\", "
                   "\"seconds\": %.6f, "
                   "\"states\": %zu, \"peak_bytes\": %zu, "
                   "\"found\": %s, \"length\": %u, "
                   "\"timed_out\": %s, \"memory_limited\": %s, "
                   "\"syntactic_pruned\": %zu, "
                   "\"git_sha\": \"%s\", \"compiler\": \"%s\", "
                   "\"nproc\": %u, \"batch_simd\": %s, \"canon_simd\": %s",
                   jsonEscaped(R.Config).c_str(),
                   jsonEscaped(R.Goal).c_str(), R.Seconds, R.States,
                   R.PeakBytes, R.Found ? "true" : "false", R.Length,
                   R.TimedOut ? "true" : "false",
                   R.MemoryLimited ? "true" : "false", R.SynPruned,
                   jsonEscaped(SKS_GIT_SHA).c_str(),
                   jsonEscaped(compilerVersionString()).c_str(),
                   std::thread::hardware_concurrency(),
                   batchApplyUsesSimd() ? "true" : "false",
                   canonicalizeUsesSimd() ? "true" : "false");
      if (R.ApplyNs || R.CanonNs || R.ViabilityNs || R.MergeNs)
        std::fprintf(F,
                     ", \"apply_ns\": %llu, \"canon_ns\": %llu, "
                     "\"viability_ns\": %llu, \"merge_ns\": %llu",
                     static_cast<unsigned long long>(R.ApplyNs),
                     static_cast<unsigned long long>(R.CanonNs),
                     static_cast<unsigned long long>(R.ViabilityNs),
                     static_cast<unsigned long long>(R.MergeNs));
      if (R.ValidateNs)
        std::fprintf(F, ", \"validate_ns\": %llu",
                     static_cast<unsigned long long>(R.ValidateNs));
      std::fprintf(F, "}%s\n", I + 1 == Rows.size() ? "" : ",");
    }
    std::fprintf(F, "]\n");
    std::fclose(F);
    return true;
  }

private:
  struct Row {
    std::string Config;
    std::string Goal;
    double Seconds;
    size_t States;
    size_t PeakBytes;
    bool Found;
    unsigned Length;
    bool TimedOut;
    bool MemoryLimited;
    size_t SynPruned;
    uint64_t ApplyNs, CanonNs, ViabilityNs, MergeNs;
    uint64_t ValidateNs = 0;
  };

  std::vector<Row> Rows;
};

/// A contestant row of a section 5.3 table.
struct TimedRow {
  std::string Name;
  double Millis = 0;
  size_t Rank = 0; ///< Filled by rankRows.
  std::string Mix; ///< "cmp/mov/cmov/other" text.
};

/// Assigns 1-based ranks by ascending time.
inline void rankRows(std::vector<TimedRow> &Rows) {
  std::vector<size_t> Order(Rows.size());
  for (size_t I = 0; I != Rows.size(); ++I)
    Order[I] = I;
  std::sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    return Rows[A].Millis < Rows[B].Millis;
  });
  for (size_t Position = 0; Position != Order.size(); ++Position)
    Rows[Order[Position]].Rank = Position + 1;
}

} // namespace bench
} // namespace sks

#endif // SKS_BENCH_BENCHCOMMON_H
