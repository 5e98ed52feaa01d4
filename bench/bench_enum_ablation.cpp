//===- bench/bench_enum_ablation.cpp - Section 5.2 enum ablation table -----===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Regenerates the paper's enumerative-approach ablation for n = 3: plain
// Dijkstra (single-core, parallel, and the data-parallel batch expansion
// that substitutes for the GPU target), A* with each section 3.1 heuristic
// in isolation, each cut setting, the action filter, the viability check,
// and the combined configurations (II) and (III). Every configuration
// verifies the kernel it finds.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "tables/DistanceTable.h"
#include "verify/Verify.h"

#include <thread>

using namespace sks;
using namespace sks::bench;

namespace {

struct Row {
  const char *Name;
  const char *PaperTime;
  SearchOptions Opts;
};

} // namespace

int main(int argc, char **argv) {
  BenchArgs Args = parseBenchArgs(argc, argv);
  banner("bench_enum_ablation",
         "section 5.2 'Enumerative Approach' ablation table (n = 3)");

  const unsigned N = 3;
  Machine M(MachineKind::Cmov, N);
  DistanceTable DT(M);
  const unsigned Bound = networkUpperBound(MachineKind::Cmov, N);
  double Timeout = isFullRun() ? 1800 : 180;

  auto Base = [&](HeuristicKind H) {
    SearchOptions Opts;
    Opts.Heuristic = H;
    Opts.UseViability = false;
    Opts.UseActionFilter = false;
    Opts.MaxLength = Bound;
    Opts.TimeoutSeconds = Timeout;
    Opts.MaxStates = static_cast<size_t>(envInt("SKS_MAX_STATES", 2500000));
    return Opts;
  };

  std::vector<Row> Rows;
  if (Args.Smoke) {
    // The fast subset for the ctest smoke entry: one row per execution
    // mode of the layered engine (with the full pruning stack, so each
    // finishes in well under a second) plus the combined best-first
    // configurations — every engine path is exercised, none of the
    // minute-scale unpruned rows run.
    auto Fast = [&](bool Layered, unsigned Threads, bool Batch) {
      SearchOptions Opts = Base(HeuristicKind::PermCount);
      Opts.UseViability = true;
      Opts.Cut = CutConfig::mult(1.0);
      Opts.Layered = Layered;
      Opts.NumThreads = Threads;
      Opts.BatchExpansion = Batch;
      return Opts;
    };
    Rows.push_back({"smoke: dijkstra+viability+cut, single core", "-",
                    Fast(true, 1, false)});
    Rows.push_back({"smoke: dijkstra+viability+cut, 4 threads", "-",
                    Fast(true, 4, false)});
    Rows.push_back({"smoke: dijkstra+viability+cut, batch", "-",
                    Fast(true, 1, true)});
    {
      SearchOptions Opts = Base(HeuristicKind::PermCount);
      Opts.UseActionFilter = true;
      Opts.UseViability = true;
      Rows.push_back(
          {"(II) := (I) + perm count, opt. instr, viability", "690 ms", Opts});
      Opts.Cut = CutConfig::mult(1.0);
      Rows.push_back({"(III) := (II) + cut 1", "97 ms", Opts});
    }
  }
  if (!Args.Smoke) {
    SearchOptions Opts = Base(HeuristicKind::None);
    Opts.Layered = true;
    Rows.push_back({"dijkstra, single core", "56 s", Opts});
    Opts.NumThreads = 4;
    Rows.push_back({"dijkstra, parallel (4 threads)", "17 s", Opts});
    Opts.NumThreads = 1;
    Opts.BatchExpansion = true;
    Rows.push_back({"dijkstra, batch (gpu-style)", "46 s (gpu)", Opts});
  }
  if (!Args.Smoke) {
    Rows.push_back({"(I) := A*, dedup, no heuristic", "219 s",
                    Base(HeuristicKind::None)});
    Rows.push_back({"(I) + permutation count", "1713 ms",
                    Base(HeuristicKind::PermCount)});
    Rows.push_back({"(I) + register assignment count", "2582 ms",
                    Base(HeuristicKind::AssignCount)});
    Rows.push_back({"(I) + assignment instructions needed", "7176 ms",
                    Base(HeuristicKind::NeededInstrs)});
  }
  if (!Args.Smoke) {
    // The cut compares against the per-length minimum permutation count;
    // its clean semantics need length-synchronized exploration, so these
    // rows run on the layered engine.
    SearchOptions Opts = Base(HeuristicKind::None);
    Opts.Layered = true;
    Opts.Cut = CutConfig::mult(2.0);
    Rows.push_back({"(I) + cut with 2", "37 s", Opts});
    Opts.Cut = CutConfig::mult(1.5);
    Rows.push_back({"(I) + cut with 1.5", "3221 ms", Opts});
    Opts.Cut = CutConfig::mult(1.0);
    Rows.push_back({"(I) + cut with 1", "325 ms", Opts});
    Opts.Cut = CutConfig::add(2);
    Rows.push_back({"(I) + cut with +2", "16 s", Opts});
  }
  if (!Args.Smoke) {
    SearchOptions Opts = Base(HeuristicKind::None);
    Opts.UseActionFilter = true;
    Rows.push_back({"(I) + assignment optimal instructions", "90 s", Opts});
    Opts.UseActionFilter = false;
    Opts.UseViability = true;
    Rows.push_back({"(I) + assignment viability check", "8646 ms", Opts});
  }
  if (!Args.Smoke) {
    SearchOptions Opts = Base(HeuristicKind::PermCount);
    Opts.UseActionFilter = true;
    Opts.UseViability = true;
    Rows.push_back(
        {"(II) := (I) + perm count, opt. instr, viability", "690 ms", Opts});
    Opts.Cut = CutConfig::mult(1.0);
    Rows.push_back({"(III) := (II) + cut 1", "97 ms", Opts});
  }

  JsonResultWriter Json;
  Table T({"Approach", "Time (measured)", "Time (paper)", "len",
           "states expanded", "states gen", "syn pruned", "peak MB"});
  for (const Row &Config : Rows) {
    SearchResult R = synthesize(M, Config.Opts, &DT);
    bool Verified =
        R.Found && isCorrectKernel(M, R.Solutions.at(0));
    std::string TimeText = R.Found ? formatDuration(R.Stats.Seconds)
                                   : (R.Stats.MemoryLimited
                                          ? "mem-limit"
                                          : (R.Stats.TimedOut ? "timeout"
                                                              : "-"));
    if (R.Found && !Verified)
      TimeText += " (VERIFY FAILED)";
    char PeakMB[32];
    std::snprintf(PeakMB, sizeof(PeakMB), "%.1f",
                  static_cast<double>(R.Stats.PeakResidentBytes) / (1 << 20));
    T.row()
        .cell(Config.Name)
        .cell(TimeText)
        .cell(Config.PaperTime)
        .cell(R.Found ? std::to_string(R.OptimalLength) : "-")
        .cell(R.Stats.StatesExpanded)
        .cell(R.Stats.StatesGenerated)
        .cell(R.Stats.SyntacticPruned)
        .cell(PeakMB);
    Json.add(Config.Name, R);
  }
  T.print();
  if (!Json.write(Args.JsonPath)) {
    std::fprintf(stderr, "error: cannot write %s\n", Args.JsonPath.c_str());
    return 1;
  }
  std::printf(
      "notes: the paper's GPU row is substituted by the instruction-major\n"
      "batch expansion (DESIGN.md); this machine reports %u hardware\n"
      "threads for the 4-thread parallel row. The action filter keeps cmps\n"
      "on unresolved register pairs (see EXPERIMENTS.md on section 3.2).\n"
      "Every row runs the syntactic prune (lint/PrefixLint.h), which\n"
      "refuses expansions that provably plant a dead instruction ('syn\n"
      "pruned'); it is sound (it preserves the 5602-solution count, see\n"
      "LintTest.cpp) and mainly cuts states GENERATED — most pruned\n"
      "targets are states dedup would also skip.\n",
      std::thread::hardware_concurrency());
  return 0;
}
