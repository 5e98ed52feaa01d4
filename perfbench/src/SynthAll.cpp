//===- perfbench/src/SynthAll.cpp - The synth_all workload ---------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The search workload: the layered find-all run that yields the 5602
/// optimal n = 3 kernels, on 2 worker threads. Its operation is what a
/// caller of the search layer does: build the machine's distance table
/// (tables layer), then synthesize with it (search layer). It uses neither
/// the service, sortlib, nor the cache.
///
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Workload.h"

#include "search/Search.h"
#include "tables/DistanceTable.h"

#include <memory>

using namespace perfbench;
using namespace sks;

namespace {

/// The section 5.3 find-all run: no cut, every optimal kernel recorded.
SearchOptions findAllConfig(MachineKind Kind, unsigned N, unsigned Threads) {
  SearchOptions Opts;
  Opts.Heuristic = HeuristicKind::PermCount;
  Opts.UseViability = true;
  Opts.FindAll = true;
  Opts.MaxLength = networkUpperBound(Kind, N);
  Opts.NumThreads = Threads;
  return Opts;
}

/// Search-layer counters summed over the traced passes.
struct SearchTotals {
  unsigned Passes = 0;
  uint64_t Expanded = 0, Generated = 0, Dedup = 0, Cut = 0, Viability = 0,
           Syntactic = 0;
  size_t PeakResident = 0;
  double SynthWall = 0, SynthCpu = 0;

  void add(const SearchStats &S, double Wall, double Cpu) {
    Expanded += S.StatesExpanded;
    Generated += S.StatesGenerated;
    Dedup += S.DedupHits;
    Cut += S.CutStates;
    Viability += S.ViabilityPruned;
    Syntactic += S.SyntacticPruned;
    PeakResident = std::max(PeakResident, S.PeakResidentBytes);
    SynthWall += Wall;
    SynthCpu += Cpu;
  }

  void emit(const std::vector<SpanRecord> &Spans, MetricMap &Out) const {
    double PerPass = Passes ? 1.0 / Passes : 0;
    double Gen = Generated ? static_cast<double>(Generated) : 1;
    Out["search.synth_ms_p50"] =
        median(spanSeconds(Spans, "search.synthesize")) * 1e3;
    Out["search.states_expanded"] = Expanded * PerPass;
    Out["search.states_generated"] = Generated * PerPass;
    Out["search.states_per_s"] = SynthWall > 0 ? Generated / SynthWall : 0;
    Out["search.cut_ratio"] = Cut / Gen;
    Out["search.viability_ratio"] = Viability / Gen;
    Out["search.cpu_per_wall"] = SynthWall > 0 ? SynthCpu / SynthWall : 0;
    Out["state.dedup_hit_ratio"] = Dedup / Gen;
    Out["state.peak_resident_mb"] = PeakResident / (1024.0 * 1024.0);
    Out["lint.syntactic_pruned"] = Syntactic * PerPass;
    Out["tables.build_ms"] = median(spanSeconds(Spans, "tables.build")) * 1e3;
    Out["verify.check_us"] = median(spanSeconds(Spans, "verify.check")) * 1e6;
  }
};

/// One synthesis as a search-layer caller runs it: the distance table
/// first, then the search reusing it. With a tracer, adds the search
/// call's counters, wall and CPU time to \p Totals.
SearchResult synthesizeOnce(Tracer *T, const Machine &M,
                            const SearchOptions &Opts, SearchTotals &Totals) {
  std::unique_ptr<DistanceTable> Table;
  {
    Span S(T, "tables.build");
    Table = std::make_unique<DistanceTable>(M);
  }
  Span S(T, "search.synthesize");
  double Wall0 = wallNow(), Cpu0 = cpuNow();
  SearchResult R = synthesize(M, Opts, Table.get());
  if (T)
    Totals.add(R.Stats, wallNow() - Wall0, cpuNow() - Cpu0);
  return R;
}

/// Checks the kernels of \p R under a verify.check span each. \returns
/// false (after reporting) on the first wrong one.
bool checkSolutions(Tracer *T, const Machine &M, const SearchResult &R,
                    unsigned MaxLength, const std::string &What,
                    PassResult &Pass) {
  if (!R.Found || R.Solutions.empty()) {
    reportFailure(Pass, What + ": no kernel found");
    return false;
  }
  for (const Program &P : R.Solutions) {
    std::string Why;
    {
      Span S(T, "verify.check");
      Why = checkKernel(M, P, MaxLength);
    }
    if (!Why.empty()) {
      reportFailure(Pass, What + ": " + Why);
      return false;
    }
    Pass.KernelLens.push_back(static_cast<unsigned>(P.size()));
  }
  return true;
}

//===----------------------------------------------------------------------===//
// synth_all
//===----------------------------------------------------------------------===//

constexpr unsigned kFindAllThreads = 2;
constexpr uint64_t kOptimalN3Kernels = 5602;

class SynthAll final : public Workload {
public:
  explicit SynthAll(const WorkloadOptions &) {}

  std::vector<std::string> classNames() const override {
    return {"find-all-cmov-n3"};
  }

  /// One operation, the same for every seed: the find-all run has no
  /// input to draw.
  std::vector<std::string> describeOps() const override {
    return {"find-all-cmov-n3 no-cut threads=2"};
  }

  std::vector<std::string> layers() const override {
    return {"search", "state", "lint", "tables", "verify"};
  }

  bool setup(Tracer *T) override {
    M = std::make_unique<Machine>(MachineKind::Cmov, 3);
    Config = findAllConfig(MachineKind::Cmov, 3, kFindAllThreads);
    // Warm-up: the same engine and thread count on the cut k = 1 space,
    // a small fraction of the no-cut run.
    SearchOptions Warm = Config;
    Warm.Cut = CutConfig::mult(1.0);
    PassResult WarmPass;
    SearchTotals Unused;
    SearchResult R = synthesizeOnce(nullptr, *M, Warm, Unused);
    return checkSolutions(T, *M, R, Warm.MaxLength, "warm-up", WarmPass);
  }

  void runPass(Tracer *T, uint64_t PassNo, PassResult &Pass) override {
    if (T)
      ++Totals.Passes;
    SearchResult R;
    timeOp(T, Pass, PassNo * OpsPerPassStride + 1, 0, true,
           [&] { R = synthesizeOnce(T, *M, Config, Totals); });
    ++Pass.Attempted;
    if (R.SolutionCount != kOptimalN3Kernels ||
        R.Solutions.size() != kOptimalN3Kernels) {
      reportFailure(Pass, "find-all: " + std::to_string(R.SolutionCount) +
                              " kernels counted, " +
                              std::to_string(R.Solutions.size()) +
                              " reconstructed, expected 5602");
      return;
    }
    checkSolutions(T, *M, R, Config.MaxLength, "find-all", Pass);
  }

  void layerMetrics(const std::vector<SpanRecord> &Spans,
                    MetricMap &Out) override {
    Totals.emit(Spans, Out);
  }

private:
  std::unique_ptr<Machine> M;
  SearchOptions Config;
  SearchTotals Totals;
};

} // namespace

std::unique_ptr<Workload> perfbench::makeSynthAll(const WorkloadOptions &Opts) {
  return std::make_unique<SynthAll>(Opts);
}
