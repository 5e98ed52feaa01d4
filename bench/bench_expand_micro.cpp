//===- bench/bench_expand_micro.cpp - Expansion hot-path microbenches ------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Pins the per-stage speedups of the fused, vectorized expansion pipeline
// (DESIGN.md section 8) on the google-benchmark harness:
//
//   canonicalize/{scalar,simd}/<rows>   sortRows networks + radix vs
//                                       std::sort + std::unique
//   apply/{scalar,simd}                 Machine::apply loop vs applyBatch
//   expand/{apply_then_check,gate}      one node's expansion: apply every
//                                       action, then probe the distance
//                                       table per child row, vs the action
//                                       gate's successor-row fold before
//                                       apply (CandidatePipeline::
//                                       expandNode)
//   table/<isa>/<n>                     DistanceTable construction, with
//                                       its bytes as a counter
//
// The baseline arms run in the same binary, so the reported ratios are
// baseline-vs-optimized on one build (the acceptance comparison), not a
// cross-build artifact. --smoke caps every benchmark at a few iterations
// for the ctest entry; --json writes the measurements plus the derived
// speedup rows and build attribution.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "search/Expansion.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <tuple>

using namespace sks;
using namespace sks::bench;
using namespace sks::detail;

namespace {

/// Row-buffer sizes exercised: network band (8..32) and radix band
/// (120, 720 = the n=5/n=6 state sizes).
constexpr uint32_t kLens[] = {8, 16, 24, 32, 120, 720};
/// Corpus buffers per benchmark: large enough that the branch predictor
/// cannot memorize each buffer's comparison pattern across iterations —
/// a 64-buffer corpus made the branchy scalar sort look ~3x faster than
/// it is on the search's ever-fresh row buffers.
constexpr size_t kBuffers = 512;

/// Builds a corpus of \p Count raw row buffers of \p Len rows each for
/// machine size \p N: random register values 0..n and random flag state,
/// sampled from a small pool so duplicate compaction has work to do.
std::vector<uint32_t> rowCorpus(unsigned N, uint32_t Len, size_t Count,
                                uint64_t Seed) {
  Machine M(MachineKind::Cmov, N);
  Rng R(Seed);
  std::vector<uint32_t> Pool(Len * 2);
  for (uint32_t &Row : Pool) {
    Row = 0;
    for (unsigned Reg = 0; Reg != M.numRegs(); ++Reg)
      Row = setReg(Row, Reg, static_cast<uint32_t>(R.below(N + 1)));
    uint64_t Flags = R.below(3);
    if (Flags == 1)
      Row |= FlagLT;
    else if (Flags == 2)
      Row |= FlagGT;
  }
  std::vector<uint32_t> Corpus(Count * Len);
  for (uint32_t &Row : Corpus)
    Row = Pool[R.below(Pool.size())];
  // Pre-sort ~70% of the buffers: that is the measured fraction of raw
  // applied buffers that arrive already sorted in a real search (apply
  // usually preserves the parent's canonical order), and the stage's
  // sorted-input shortcut is part of what this benchmark measures.
  for (size_t B = 0; B != Count; ++B)
    if (B % 10 < 7)
      std::sort(Corpus.begin() + static_cast<ptrdiff_t>(B * Len),
                Corpus.begin() + static_cast<ptrdiff_t>((B + 1) * Len));
  return Corpus;
}

void benchCanonicalize(benchmark::State &State, uint32_t Len, bool Simd) {
  // n = 5 rows for the radix-band sizes, n = 4 for the network band.
  std::vector<uint32_t> Pristine =
      rowCorpus(Len > 32 ? 5 : 4, Len, kBuffers, 42 + Len);
  std::vector<uint32_t> Work(Len);
  for (auto _ : State) {
    for (size_t B = 0; B != kBuffers; ++B) {
      std::copy_n(Pristine.data() + B * Len, Len, Work.data());
      uint32_t Unique = Simd ? canonicalizeRows(Work.data(), Len)
                             : canonicalizeRowsScalar(Work.data(), Len);
      benchmark::DoNotOptimize(Unique);
      benchmark::DoNotOptimize(Work.data());
    }
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(kBuffers * Len));
}

void benchApply(benchmark::State &State, bool Simd) {
  Machine M(MachineKind::Cmov, 4);
  constexpr uint32_t kRows = 4096;
  std::vector<uint32_t> In = rowCorpus(4, kRows, 1, 7);
  std::vector<uint32_t> Out(kRows);
  const std::vector<Instr> &Instrs = M.instructions();
  for (auto _ : State) {
    for (const Instr &I : Instrs) {
      if (Simd) {
        applyBatch(M, I, In.data(), Out.data(), kRows);
      } else {
        for (uint32_t R = 0; R != kRows; ++R)
          Out[R] = M.apply(In[R], I);
      }
      benchmark::DoNotOptimize(Out.data());
    }
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(Instrs.size() * kRows));
}

/// Everything the expansion benchmarks share: the n = 3 find-all
/// configuration (no cut, length bound 12) with its distance table and a
/// corpus of search nodes — canonical row sets reached by random walks of
/// viable steps off the initial state. Lengths 5..10 are drawn in
/// proportion to that run's level sizes, which hold 99.9% of the nodes it
/// expands.
struct ExpandFixture {
  Machine M{MachineKind::Cmov, 3};
  DistanceTable DT{M};
  SearchOptions Opts;
  CutTracker Cuts;
  CandidatePipeline Pipeline;
  std::vector<uint32_t> Rows;      ///< Every node's rows, back to back.
  std::vector<uint32_t> Offsets;   ///< Node I is Rows[Offsets[I]..[I+1]).
  std::vector<unsigned> Depths;    ///< Program length of each node.

  ExpandFixture()
      : Opts(makeOpts()), Cuts(Opts.Cut, Opts.MaxLength),
        Pipeline(M, Opts, &DT, Cuts) {
    const std::vector<uint32_t> Init = initialState(M).Rows;
    const std::vector<Instr> &Instrs = M.instructions();
    Rng R(11);
    Offsets.push_back(0);
    std::vector<std::vector<uint32_t>> Viable;
    // Committed states per level 5..10 of the run (EngineEquivalenceTest).
    const size_t LevelStates[] = {6432, 26828, 110995, 389945, 995165, 74019};
    size_t AllStates = 0;
    for (size_t Count : LevelStates)
      AllStates += Count;
    while (Depths.size() != kBuffers) {
      unsigned Depth = 5;
      for (size_t Pick = R.below(AllStates); Pick >= LevelStates[Depth - 5];
           ++Depth)
        Pick -= LevelStates[Depth - 5];
      std::vector<uint32_t> Parent = Init;
      for (unsigned D = 0; D != Depth && !Parent.empty(); ++D) {
        // Step to a random child that stays viable at length D + 1; a
        // dead end drops the walk.
        Viable.clear();
        for (const Instr &I : Instrs) {
          std::vector<uint32_t> Child = Parent;
          for (uint32_t &Row : Child)
            Row = M.apply(Row, I);
          Child.resize(canonicalizeRows(
              Child.data(), static_cast<uint32_t>(Child.size())));
          const uint8_t Needed = DT.maxDist(Child);
          if (Needed != DistanceTable::Unreachable &&
              D + 1 + Needed <= Opts.MaxLength)
            Viable.push_back(std::move(Child));
        }
        Parent = Viable.empty() ? std::vector<uint32_t>()
                                : Viable[R.below(Viable.size())];
      }
      if (Parent.empty())
        continue;
      Rows.insert(Rows.end(), Parent.begin(), Parent.end());
      Offsets.push_back(static_cast<uint32_t>(Rows.size()));
      Depths.push_back(Depth);
    }
  }

  static SearchOptions makeOpts() {
    SearchOptions Opts;
    Opts.UseViability = true;
    Opts.Cut = CutConfig::none();
    Opts.MaxLength = networkUpperBound(MachineKind::Cmov, 3);
    return Opts;
  }
};

ExpandFixture &expandFixture() {
  static ExpandFixture F;
  return F;
}

/// The node expansion before the gate decided viability: every
/// lint-admitted instruction is applied, then the distance table is probed
/// per child row (stopping at the first dead row), and the survivors go
/// through finish(). Kept as the apply-then-check baseline.
void expandApplyThenCheck(const ExpandFixture &F, const uint32_t *Rows,
                          uint32_t Len, const PrefixLint &Lint,
                          unsigned ChildG, CandidateBatch &B,
                          SearchStats &Stats) {
  for (const Instr &I : F.M.instructions()) {
    if (Lint.killsPrefix(I))
      continue;
    const size_t RawBegin = B.Rows.size();
    B.Rows.resize(RawBegin + Len);
    applyBatch(F.M, I, Rows, B.Rows.data() + RawBegin, Len);
    const uint8_t Needed = F.DT.maxDist(B.Rows.data() + RawBegin, Len);
    if (Needed == DistanceTable::Unreachable ||
        ChildG + Needed > F.Opts.MaxLength) {
      B.Rows.resize(RawBegin);
      continue;
    }
    F.Pipeline.finish(B, RawBegin, ChildG, 0, I, Needed, Lint, Stats);
  }
}

/// Expands every corpus node into \p B with the gate (\p Gate) or the
/// apply-then-check baseline.
void expandCorpus(const ExpandFixture &F, bool Gate, CandidateBatch &B,
                  std::vector<Action> &Actions, SearchStats &Stats) {
  const PrefixLint Lint = PrefixLint::entry();
  for (size_t Node = 0; Node != F.Depths.size(); ++Node) {
    const uint32_t *Rows = F.Rows.data() + F.Offsets[Node];
    const uint32_t Len = F.Offsets[Node + 1] - F.Offsets[Node];
    const unsigned ChildG = F.Depths[Node] + 1;
    if (Gate)
      F.Pipeline.expandNode(Rows, Len, Lint, 0, ChildG, B, Actions, Stats);
    else
      expandApplyThenCheck(F, Rows, Len, Lint, ChildG, B, Stats);
  }
}

/// True when both expansion paths produce the same candidates, rows
/// included; the speedup row compares equal work only.
bool expansionPathsAgree() {
  const ExpandFixture &F = expandFixture();
  CandidateBatch Old, New;
  std::vector<Action> Actions;
  SearchStats Stats;
  expandCorpus(F, false, Old, Actions, Stats);
  expandCorpus(F, true, New, Actions, Stats);
  if (Old.List.size() != New.List.size() || Old.Rows != New.Rows)
    return false;
  for (size_t I = 0; I != Old.List.size(); ++I)
    if (Old.List[I].Hash != New.List[I].Hash ||
        Old.List[I].Needed != New.List[I].Needed)
      return false;
  return true;
}

void benchExpand(benchmark::State &State, bool Gate) {
  const ExpandFixture &F = expandFixture();
  CandidateBatch B;
  std::vector<Action> Actions;
  SearchStats Stats;
  size_t Survivors = 0;
  for (auto _ : State) {
    B.clear();
    expandCorpus(F, Gate, B, Actions, Stats);
    Survivors += B.List.size();
    benchmark::DoNotOptimize(B.Rows.data());
    benchmark::DoNotOptimize(B.List.data());
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(F.Depths.size()));
  State.counters["survivors"] =
      static_cast<double>(Survivors) /
      static_cast<double>(std::max<int64_t>(1, State.iterations()));
}

void benchTable(benchmark::State &State, MachineKind Kind, unsigned N) {
  Machine M(Kind, N);
  size_t Bytes = 0;
  for (auto _ : State) {
    DistanceTable DT(M);
    Bytes = DT.bytesUsed();
    benchmark::DoNotOptimize(Bytes);
  }
  State.counters["bytes"] = static_cast<double>(Bytes);
}

/// Captures per-benchmark timings while still printing the console table.
class CaptureReporter : public benchmark::ConsoleReporter {
public:
  struct Timing {
    std::string Name;
    double NsPerOp;
    double ItemsPerSecond;
    double Bytes; ///< The table rows' "bytes" counter; 0 elsewhere.
  };
  std::vector<Timing> Timings;

  void ReportRuns(const std::vector<Run> &Reports) override {
    for (const Run &R : Reports) {
      if (R.error_occurred)
        continue;
      double Iters = std::max<double>(1, static_cast<double>(R.iterations));
      double NsPerOp = R.real_accumulated_time * 1e9 / Iters;
      auto It = R.counters.find("items_per_second");
      auto BytesIt = R.counters.find("bytes");
      // Smoke mode's ->Iterations() appends "/iterations:N" to the name;
      // strip it so the speedup pairing below works in both modes.
      std::string Name = R.benchmark_name();
      if (size_t Pos = Name.find("/iterations:"); Pos != std::string::npos)
        Name.resize(Pos);
      Timings.push_back(
          {std::move(Name), NsPerOp,
           It != R.counters.end() ? static_cast<double>(It->second) : 0,
           BytesIt != R.counters.end() ? static_cast<double>(BytesIt->second)
                                       : 0});
    }
    ConsoleReporter::ReportRuns(Reports);
  }
};

double nsOf(const CaptureReporter &Rep, const std::string &Name) {
  for (const auto &T : Rep.Timings)
    if (T.Name == Name)
      return T.NsPerOp;
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  BenchArgs Args = parseBenchArgs(argc, argv);
  banner("bench_expand_micro",
         "DESIGN.md section 8: per-stage speedups of the fused, vectorized "
         "expansion pipeline");

  const int64_t SmokeIters = 4;
  auto Register = [&](const std::string &Name, auto Fn) {
    auto *B = benchmark::RegisterBenchmark(Name.c_str(), Fn);
    if (Args.Smoke)
      B->Iterations(SmokeIters);
  };

  for (uint32_t Len : kLens) {
    Register("canonicalize/scalar/" + std::to_string(Len),
             [Len](benchmark::State &S) { benchCanonicalize(S, Len, false); });
    Register("canonicalize/simd/" + std::to_string(Len),
             [Len](benchmark::State &S) { benchCanonicalize(S, Len, true); });
  }
  Register("apply/scalar",
           [](benchmark::State &S) { benchApply(S, false); });
  Register("apply/simd", [](benchmark::State &S) { benchApply(S, true); });
  Register("expand/apply_then_check",
           [](benchmark::State &S) { benchExpand(S, false); });
  Register("expand/gate", [](benchmark::State &S) { benchExpand(S, true); });
  for (auto [Kind, Isa, MaxN] : {std::tuple{MachineKind::Cmov, "cmov", 6u},
                                 {MachineKind::MinMax, "minmax", 5u}})
    for (unsigned N = 3; N <= MaxN; ++N)
      Register(std::string("table/") + Isa + "/" + std::to_string(N),
               [Kind, N](benchmark::State &S) { benchTable(S, Kind, N); });
  if (!expansionPathsAgree()) {
    std::fprintf(stderr, "error: the gate and the apply-then-check "
                         "expansion disagree\n");
    return 1;
  }

  int FakeArgc = 1;
  benchmark::Initialize(&FakeArgc, argv);
  CaptureReporter Reporter;
  benchmark::RunSpecifiedBenchmarks(&Reporter);

  // Derived speedup rows (equal workloads, so the ns/op ratio is the
  // throughput ratio). The canonicalize acceptance bar is >= 1.5x.
  Table T({"stage", "baseline ns/op", "optimized ns/op", "speedup"});
  struct SpeedRow {
    std::string Name;
    double Speedup;
  };
  std::vector<SpeedRow> Speedups;
  auto AddRow = [&](const std::string &Label, const std::string &Scalar,
                    const std::string &Simd) {
    double S = nsOf(Reporter, Scalar), V = nsOf(Reporter, Simd);
    double Ratio = V > 0 ? S / V : 0;
    Speedups.push_back({Label, Ratio});
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.2fx", Ratio);
    T.row()
        .cell(Label)
        .cell(std::to_string(static_cast<long long>(S)))
        .cell(std::to_string(static_cast<long long>(V)))
        .cell(Buf);
  };
  for (uint32_t Len : kLens)
    AddRow("canonicalize/" + std::to_string(Len),
           "canonicalize/scalar/" + std::to_string(Len),
           "canonicalize/simd/" + std::to_string(Len));
  // The headline canonicalize claim is the geomean across sizes: small
  // buffers are harness- and fixed-cost-dominated, large ones radix-bound.
  {
    double LogSum = 0;
    size_t Count = 0;
    for (const auto &S : Speedups)
      if (S.Speedup > 0) {
        LogSum += std::log(S.Speedup);
        ++Count;
      }
    double Geomean = Count ? std::exp(LogSum / static_cast<double>(Count)) : 0;
    Speedups.push_back({"canonicalize/geomean", Geomean});
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.2fx", Geomean);
    T.row().cell("canonicalize/geomean").cell("-").cell("-").cell(Buf);
  }
  AddRow("apply", "apply/scalar", "apply/simd");
  AddRow("expand", "expand/apply_then_check", "expand/gate");
  std::printf("\n");
  T.print();
  std::printf("simd: apply=%s canonicalize=%s (scalar arms forced via the "
              "*Scalar entry points)\n",
              batchApplyUsesSimd() ? "on" : "off",
              canonicalizeUsesSimd() ? "on" : "off");

  if (!Args.JsonPath.empty()) {
    std::FILE *F = std::fopen(Args.JsonPath.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "error: cannot write %s\n", Args.JsonPath.c_str());
      return 1;
    }
    std::fprintf(F, "[\n");
    for (const auto &Timing : Reporter.Timings) {
      std::fprintf(F,
                   "  {\"name\": \"%s\", \"ns_per_op\": %.1f, "
                   "\"items_per_second\": %.0f",
                   Timing.Name.c_str(), Timing.NsPerOp,
                   Timing.ItemsPerSecond);
      if (Timing.Bytes > 0)
        std::fprintf(F, ", \"bytes\": %.0f", Timing.Bytes);
      std::fprintf(F, "},\n");
    }
    for (const auto &S : Speedups)
      std::fprintf(F, "  {\"name\": \"speedup/%s\", \"speedup\": %.3f},\n",
                   S.Name.c_str(), S.Speedup);
    std::fprintf(F,
                 "  {\"name\": \"meta\", \"git_sha\": \"%s\", "
                 "\"compiler\": \"%s\", \"nproc\": %u, "
                 "\"batch_simd\": %s, \"canon_simd\": %s, "
                 "\"smoke\": %s}\n]\n",
                 SKS_GIT_SHA, compilerVersionString().c_str(),
                 std::thread::hardware_concurrency(),
                 batchApplyUsesSimd() ? "true" : "false",
                 canonicalizeUsesSimd() ? "true" : "false",
                 Args.Smoke ? "true" : "false");
    std::fclose(F);
  }
  return 0;
}
