//===- perfbench/src/Main.cpp - The repository benchmark entry point ------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload in this process and prints its metrics:
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--kernels-dir <dir>] [--trace-out <file>] [--smoke]
///   perfbench --workload <name> --seed <n> --print-ops
///   perfbench --workload <name> --seed <n> --setup-only [--kernels-dir <dir>]
///   perfbench --self-test
///
/// The untraced run (--trace 0) first spawns several fresh processes of
/// this binary with --setup-only. Each is timed from just before it is
/// spawned until it has set the workload up, which is where its first
/// timed operation would start; the median is setup_s. The run then sets
/// the workload up itself, runs whole passes over the seeded operation
/// list until the next pass would overrun --seconds, and prints the
/// end-to-end metrics. The traced run (--trace 1) spends half of --seconds
/// on untraced passes and half on passes with spans around every call
/// into a layer, derives the per-layer metrics, and reports the tracing
/// overhead and the share of operation time no layer span covers.
///
/// The last stdout line is "perfbench-result {json}" with the metric
/// values; perfbench/run.py attaches units from BENCHMARK.json. A traced
/// result also lists the layers the workload calls into; run.py reports
/// the metrics of every other layer as 0.
///
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Workload.h"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <malloc.h>
#include <map>
#include <spawn.h>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace perfbench;

namespace {

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool Smoke = false;
  bool PrintOps = false;
  bool SelfTest = false;
  bool SetupOnly = false;
  std::string KernelsDir = "kernels_prebuilt";
  std::string TraceOut;
};

using Factory = std::function<std::unique_ptr<Workload>(const WorkloadOptions &)>;

const std::map<std::string, Factory> &workloads() {
  static const std::map<std::string, Factory> Table = {
      {"synth_all", makeSynthAll},
      {"sort_mix", makeSortMix},
      {"serve_mix", makeServeMix},
  };
  return Table;
}

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "synth_all|sort_mix|serve_mix --seed N --seconds S "
               "--trace 0|1 [--kernels-dir DIR] [--trace-out FILE] [--smoke] "
               "[--print-ops | --setup-only]\n       perfbench --self-test\n",
               Why);
  return 2;
}

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Value = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (Arg == "--smoke")
      A.Smoke = true;
    else if (Arg == "--print-ops")
      A.PrintOps = true;
    else if (Arg == "--self-test")
      A.SelfTest = true;
    else if (Arg == "--setup-only")
      A.SetupOnly = true;
    else if (!(V = Value()))
      return false;
    else if (Arg == "--workload")
      A.Workload = V;
    else if (Arg == "--seed")
      A.Seed = std::strtoull(V, nullptr, 10);
    else if (Arg == "--seconds")
      A.Seconds = std::atof(V);
    else if (Arg == "--trace")
      A.Trace = std::strcmp(V, "1") == 0;
    else if (Arg == "--kernels-dir")
      A.KernelsDir = V;
    else if (Arg == "--trace-out")
      A.TraceOut = V;
    else
      return false;
  }
  return A.SelfTest || workloads().count(A.Workload);
}

/// Numbers from a Debug or sanitizer build describe a different program
/// (debug builds re-prove every JIT kernel at attach time), so the
/// benchmark refuses to report from one.
const char *refusedBuild() {
#ifndef NDEBUG
  return "assertions are enabled (not a Release build)";
#endif
#if defined(PERFBENCH_SANITIZED) || defined(__SANITIZE_ADDRESS__) ||          \
    defined(__SANITIZE_THREAD__)
  return "the build is instrumented with a sanitizer";
#endif
  return nullptr;
}

std::string compilerName() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#else
  return std::string("gcc ") + __VERSION__;
#endif
}

/// Everything the workloads ran, summed over passes.
struct RunTotals {
  std::vector<double> Walls, Cpus, OpMs;
  uint64_t Attempted = 0, Failed = 0;
  double KernelLenSum = 0;
  size_t KernelCount = 0;

  void add(const PassResult &P) {
    Walls.push_back(P.WallS);
    Cpus.push_back(P.CpuS);
    for (const OpSample &S : P.Ops)
      OpMs.push_back(S.Ms);
    Attempted += P.Attempted;
    Failed += P.Failed;
    for (unsigned L : P.KernelLens)
      KernelLenSum += L;
    KernelCount += P.KernelLens.size();
  }
};

/// Runs whole passes until the next one would end past \p Budget seconds
/// (always at least one). Pass numbers continue from \p FirstPass. Freed
/// heap memory goes back to the OS before every pass, so each pass starts
/// from the same allocator state and peak RSS is that of the largest pass
/// rather than of the allocator's history.
void runPasses(Workload &W, Tracer *T, double Budget, uint64_t FirstPass,
               RunTotals &Totals, std::vector<PassResult> *Keep = nullptr) {
  double Start = wallNow();
  for (uint64_t P = FirstPass;; ++P) {
    malloc_trim(0);
    PassResult R;
    W.runPass(T, P, R);
    Totals.add(R);
    if (Keep)
      Keep->push_back(std::move(R));
    double Elapsed = wallNow() - Start;
    double PerPass = Elapsed / static_cast<double>(P - FirstPass + 1);
    if (Elapsed + PerPass > Budget)
      return;
  }
}

/// Prints each operation class's count and median latency.
void printClassTable(const Workload &W, const std::vector<PassResult> &Passes) {
  std::vector<std::string> Names = W.classNames();
  std::vector<std::vector<double>> ByClass(Names.size());
  for (const PassResult &P : Passes)
    for (const OpSample &S : P.Ops)
      ByClass[S.Class].push_back(S.Ms);
  std::printf("%-28s %8s %12s %12s\n", "class", "ops", "p50 ms", "max ms");
  for (size_t C = 0; C != Names.size(); ++C)
    if (!ByClass[C].empty())
      std::printf("%-28s %8zu %12.4f %12.4f\n", Names[C].c_str(),
                  ByClass[C].size(), median(ByClass[C]),
                  quantile(ByClass[C], 1.0));
}

void printResult(const RunTotals &Totals, const MetricMap &Metrics,
                 const std::vector<std::string> *Layers = nullptr) {
  double FailFrac = Totals.Attempted
                        ? static_cast<double>(Totals.Failed) / Totals.Attempted
                        : 1.0;
  std::printf("fail_frac %.6f (%" PRIu64 " of %" PRIu64 " operations)\n",
              FailFrac, Totals.Failed, Totals.Attempted);
  std::string Json = "{\"correct\": ";
  Json += Totals.Failed == 0 && Totals.Attempted > 0 ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(Totals.Attempted);
  Json += ", \"failed\": " + std::to_string(Totals.Failed);
  Json += ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, Value] : Metrics) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", Value);
    Json += (First ? "\"" : ", \"") + Name + "\": " + Buf;
    First = false;
  }
  Json += "}";
  if (Layers) {
    Json += ", \"layers\": [";
    for (size_t I = 0; I != Layers->size(); ++I)
      Json += (I ? ", \"" : "\"") + (*Layers)[I] + "\"";
    Json += "]";
  }
  Json += "}";
  std::printf("perfbench-result %s\n", Json.c_str());
}

/// A set-up that fails (a kernel file missing or wrong, a cache directory
/// that cannot be created) leaves nothing to measure: no result is printed.
int setupFailed(const std::string &Workload) {
  std::fprintf(stderr, "perfbench: %s set-up failed\n", Workload.c_str());
  return 1;
}

/// The --setup-only child: sets the workload up, prints the steady-clock
/// time at which its first timed operation would start, and exits.
int runSetupOnly(const Args &A, const WorkloadOptions &Opts) {
  std::unique_ptr<Workload> W = workloads().at(A.Workload)(Opts);
  if (!W->setup(nullptr))
    return setupFailed(A.Workload);
  std::printf("%.9f\n", wallNow());
  std::fflush(stdout);
  return 0;
}

/// Times one set-up in a fresh process of this binary: from just before
/// the spawn until the child reports the end of its set-up. \returns a
/// negative value when the child fails.
double timeFreshSetup(const Args &A) {
  char Exe[4096];
  ssize_t Len = readlink("/proc/self/exe", Exe, sizeof(Exe) - 1);
  if (Len <= 0)
    return -1;
  Exe[Len] = 0;
  std::vector<std::string> Strs = {Exe,
                                   "--workload",
                                   A.Workload,
                                   "--seed",
                                   std::to_string(A.Seed),
                                   "--kernels-dir",
                                   A.KernelsDir,
                                   "--setup-only"};
  if (A.Smoke)
    Strs.push_back("--smoke");
  std::vector<char *> Argv;
  for (std::string &S : Strs)
    Argv.push_back(S.data());
  Argv.push_back(nullptr);

  int Pipe[2];
  if (pipe(Pipe) != 0)
    return -1;
  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  posix_spawn_file_actions_adddup2(&Actions, Pipe[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&Actions, Pipe[0]);
  posix_spawn_file_actions_addclose(&Actions, Pipe[1]);
  std::fflush(stdout);
  pid_t Child = 0;
  double Start = wallNow();
  int Error = posix_spawn(&Child, Exe, &Actions, nullptr, Argv.data(), environ);
  posix_spawn_file_actions_destroy(&Actions);
  close(Pipe[1]);
  std::string Out;
  char Buf[256];
  ssize_t N = 0;
  while (Error == 0 && (N = read(Pipe[0], Buf, sizeof(Buf))) > 0)
    Out.append(Buf, static_cast<size_t>(N));
  close(Pipe[0]);
  if (Error != 0)
    return -1;
  int Status = 0;
  while (waitpid(Child, &Status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0 || Out.empty())
    return -1;
  return std::strtod(Out.c_str(), nullptr) - Start;
}

int runUntraced(const Args &A, const WorkloadOptions &Opts) {
  // setup_s: the median set-up of fresh processes, each from process
  // start (spawn) to the point where its first timed operation would run.
  const unsigned SetupReps = A.Smoke ? 1 : 15;
  std::vector<double> SetupTimes;
  for (unsigned Rep = 0; Rep != SetupReps; ++Rep) {
    double Seconds = timeFreshSetup(A);
    if (Seconds < 0)
      return setupFailed(A.Workload);
    SetupTimes.push_back(Seconds);
  }

  // This process's own set-up is not timed: setup_s covers it.
  std::unique_ptr<Workload> W = workloads().at(A.Workload)(Opts);
  if (!W->setup(nullptr))
    return setupFailed(A.Workload);
  RunTotals Totals;
  std::vector<PassResult> Passes;
  runPasses(*W, nullptr, A.Seconds, 1, Totals, &Passes);
  printClassTable(*W, Passes);

  MetricMap M;
  M["setup_s"] = median(SetupTimes);
  M["wall_s"] = median(Totals.Walls);
  M["cpu_s"] = median(Totals.Cpus);
  M["op_ms_p50"] = quantile(Totals.OpMs, 0.50);
  M["op_ms_p90"] = quantile(Totals.OpMs, 0.90);
  M["op_ms_p99"] = quantile(Totals.OpMs, 0.99);
  M["peak_rss_mb"] = peakRssMb();
  M["kernel_len_mean"] =
      Totals.KernelCount ? Totals.KernelLenSum / Totals.KernelCount : 0;
  std::printf("passes %zu, operations %zu; pass wall s:", Totals.Walls.size(),
              Totals.OpMs.size());
  for (double W : Totals.Walls)
    std::printf(" %.4f", W);
  std::printf("\nfresh-process set-up s:");
  for (double S : SetupTimes)
    std::printf(" %.4f", S);
  std::printf("\n");
  printResult(Totals, M);
  return 0;
}

/// Per span name: count, total and self seconds (duration minus the
/// direct children's durations).
struct SelfTime {
  size_t Count = 0;
  double Total = 0, Self = 0;
};

std::map<std::string, SelfTime> selfTimes(const std::vector<SpanRecord> &Spans) {
  std::vector<double> ChildSum(Spans.size(), 0);
  for (const SpanRecord &S : Spans)
    if (S.Parent >= 0)
      ChildSum[S.Parent] += S.seconds();
  std::map<std::string, SelfTime> Table;
  for (size_t I = 0; I != Spans.size(); ++I) {
    SelfTime &E = Table[Spans[I].Name];
    ++E.Count;
    E.Total += Spans[I].seconds();
    E.Self += Spans[I].seconds() - ChildSum[I];
  }
  return Table;
}

int runTraced(const Args &A, const WorkloadOptions &Opts) {
  const Factory &Make = workloads().at(A.Workload);
  Tracer T;
  RunTotals Totals;
  std::unique_ptr<Workload> W = Make(Opts);
  if (!W->setup(&T))
    return setupFailed(A.Workload);

  // Untraced and traced passes of the same workload object, half the
  // budget each; the ratio of their median pass walls is the overhead.
  RunTotals Untraced, Traced;
  runPasses(*W, nullptr, A.Seconds / 2, 1, Untraced);
  runPasses(*W, &T, A.Seconds / 2, Untraced.Walls.size() + 1, Traced);
  Totals.Attempted = Untraced.Attempted + Traced.Attempted;
  Totals.Failed = Untraced.Failed + Traced.Failed;

  std::vector<SpanRecord> Spans = T.spans();
  MetricMap M;
  W->layerMetrics(Spans, M);
  M["trace.overhead_pct"] =
      (median(Traced.Walls) / median(Untraced.Walls) - 1.0) * 100.0;

  std::map<std::string, SelfTime> Self = selfTimes(Spans);
  double OpTotal = Self["op"].Total;
  M["trace.gap_frac"] = OpTotal > 0 ? Self["op"].Self / OpTotal : 0;
  std::printf("%-24s %8s %12s %12s %8s\n", "span", "count", "total ms",
              "self ms", "self %");
  for (const auto &[Name, E] : Self)
    std::printf("%-24s %8zu %12.3f %12.3f %7.1f%%\n", Name.c_str(), E.Count,
                E.Total * 1e3, E.Self * 1e3,
                OpTotal > 0 ? 100.0 * E.Self / OpTotal : 0.0);
  std::printf("tracing overhead %.2f%% (median pass %.4f s traced, %.4f s "
              "untraced); %.2f%% of operation time outside layer spans\n",
              M["trace.overhead_pct"], median(Traced.Walls),
              median(Untraced.Walls), 100.0 * M["trace.gap_frac"]);
  if (M["trace.gap_frac"] > 0.1)
    std::printf("warning: layer spans cover less than 90%% of operation "
                "time; the per-layer split misses part of it\n");
  if (!A.TraceOut.empty() && !T.append(A.TraceOut, A.Workload))
    std::fprintf(stderr, "perfbench: cannot write %s\n", A.TraceOut.c_str());

  std::vector<std::string> Layers = W->layers();
  Layers.push_back("trace");
  printResult(Totals, M, &Layers);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A))
    return usage("bad arguments");
  if (A.SelfTest)
    return runSelfTest(A.KernelsDir);

  WorkloadOptions Opts;
  Opts.Seed = A.Seed;
  Opts.Smoke = A.Smoke;
  Opts.KernelsDir = A.KernelsDir;
  const char *Tmp = std::getenv("TMPDIR");
  Opts.TempDir = Tmp && *Tmp ? Tmp : "/tmp";

  if (A.PrintOps) {
    for (const std::string &Line : workloads().at(A.Workload)(Opts)->describeOps())
      std::printf("%s\n", Line.c_str());
    return 0;
  }
  if (const char *Why = refusedBuild()) {
    std::fprintf(stderr, "perfbench: refusing to report: %s\n", Why);
    return 3;
  }
  if (A.SetupOnly)
    return runSetupOnly(A, Opts);
  std::printf("perfbench-stamp {\"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"seconds\": %g, \"trace\": %d, \"compiler\": \"%s\", "
              "\"build_type\": \"%s\", \"nproc\": %u}\n",
              A.Workload.c_str(), A.Seed, A.Seconds, A.Trace ? 1 : 0,
              compilerName().c_str(), PERFBENCH_BUILD_TYPE,
              std::thread::hardware_concurrency());
  std::fflush(stdout);

  return A.Trace ? runTraced(A, Opts) : runUntraced(A, Opts);
}
