//===- search/Search.h - Enumerative sorting-kernel synthesis --*- C++ -*-===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's primary contribution (section 3): enumerative synthesis of
/// sorting kernels by Dijkstra / A* search over canonical multi-assignment
/// states, with
///
///  - three search heuristics (section 3.1): distinct-permutation count,
///    distinct-register-assignment count, and the admissible
///    per-assignment-distance lower bound;
///  - the "optimal instructions" action filter (section 3.2);
///  - the viability check (section 3.3);
///  - a syntactic prune that never appends an instruction the prefix
///    summary proves dead in every completion (lint/PrefixLint.h);
///  - the non-optimality-preserving cut on the distinct-permutation count
///    (section 3.5), multiplicative (factor k) or additive (+c);
///  - deduplication of equivalent programs via canonical state hashing
///    (section 3.6).
///
/// Two engines share these components:
///
///  - a best-first engine (priority queue on f = g + h) that finds one
///    kernel quickly — the configuration rows of the section 5.2 ablation;
///  - a layered engine (all programs of length L before length L+1, the
///    "Dijkstra" rows) that additionally records the deduplicated solution
///    DAG, from which ALL optimal kernels can be counted (by dynamic
///    programming over path counts) and enumerated — this powers the 5602-
///    solutions experiment, Figure 2, and the length-19 lower-bound proof
///    for n = 4. The layered engine optionally runs its expansions on a
///    thread pool ("parallel" row) or instruction-major over a flat row
///    buffer ("batch" row, the GPU-style data-parallel substitute).
///
//===----------------------------------------------------------------------===//

#ifndef SKS_SEARCH_SEARCH_H
#define SKS_SEARCH_SEARCH_H

#include "machine/Machine.h"
#include "state/SearchState.h"
#include "support/StopToken.h"
#include "tables/DistanceTable.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace sks {

/// Which section 3.1 heuristic guides the search.
enum class HeuristicKind {
  None,         ///< plain Dijkstra (f = g)
  PermCount,    ///< distinct permutations remaining (best in the paper)
  AssignCount,  ///< distinct register assignments remaining
  NeededInstrs, ///< max per-assignment distance (admissible lower bound)
};

/// The section 3.5 cut on the distinct-permutation count.
struct CutConfig {
  enum class Kind {
    None,
    Multiplicative, ///< discard s if perm(s) > k * min_perm(level - 1)
    Additive,       ///< discard s if perm(s) > min_perm(level - 1) + c
  };
  Kind Mode = Kind::None;
  double Factor = 1.0;
  unsigned Offset = 0;

  static CutConfig none() { return CutConfig{}; }
  static CutConfig mult(double K) {
    return CutConfig{Kind::Multiplicative, K, 0};
  }
  static CutConfig add(unsigned C) { return CutConfig{Kind::Additive, 1.0, C}; }
};

/// Configuration of one synthesis run.
struct SearchOptions {
  HeuristicKind Heuristic = HeuristicKind::PermCount;
  CutConfig Cut = CutConfig::none();
  /// Prune states where some assignment cannot be sorted in the remaining
  /// budget (section 3.3; requires the distance table). Without it the
  /// always-applicable half still runs: a state in which some assignment
  /// has lost one of the values 1..n from every register is pruned.
  bool UseViability = true;
  /// Only expand instructions on some assignment's optimal completion
  /// (section 3.2; requires the distance table).
  bool UseActionFilter = false;
  /// Hard upper bound on program length (inclusive).
  unsigned MaxLength = 64;
  /// Use the layered engine and enumerate ALL optimal kernels.
  bool FindAll = false;
  /// In FindAll mode, cap on the number of explicitly reconstructed
  /// programs (the path COUNT is always exact); 0 keeps none.
  size_t MaxSolutionsKept = 1 << 20;
  /// Wall-clock budget in seconds (0 = unlimited).
  double TimeoutSeconds = 0;
  /// Cooperative stop token (driver cancellation / outer deadlines); both
  /// engines poll it at their existing deadline check sites. Any stop is
  /// reported as SearchStats::TimedOut. A default token never stops.
  StopToken Stop;
  /// Abort when this many states have been stored (0 = unlimited); keeps
  /// the unpruned Dijkstra configurations from exhausting memory on small
  /// machines (the paper used 32 GB).
  size_t MaxStates = 0;
  /// Abort when the state store (row arenas + dedup index + node metadata)
  /// exceeds this many bytes (0 = unlimited) — the principled, byte-exact
  /// form of MaxStates, made possible by StateStore::bytesUsed().
  size_t MaxStateBytes = 0;
  /// Worker threads for the layered engine (1 = sequential).
  unsigned NumThreads = 1;
  /// Force the layered engine even when FindAll is off ("dijkstra" rows).
  bool Layered = false;
  /// Instruction-major expansion in the layered engine (the GPU-style
  /// data-parallel substitute): each instruction is applied to the whole
  /// level arena at once. Same action gate, budget checks, and per-level
  /// state counts as node-major expansion; only the loop order differs.
  bool BatchExpansion = false;
  /// Emit a trace point every so many seconds (0 = off); for Figure 1.
  double TraceIntervalSeconds = 0;
  /// Collect the per-stage nanosecond counters of the expansion pipeline
  /// (SearchStats::ApplyNanos and friends); printed by sks-synth --profile
  /// and emitted by the bench --json writers. Off by default: the stage
  /// timers are branch-guarded, so a disabled profile costs one predicted
  /// branch per stage and no clock reads.
  bool ProfilePipeline = false;
};

/// One Figure 1 sample.
struct TracePoint {
  double Seconds;
  size_t OpenStates;
  uint64_t SolutionsFound;
};

/// Search statistics for the evaluation tables.
struct SearchStats {
  size_t StatesExpanded = 0;
  size_t StatesGenerated = 0;
  size_t DedupHits = 0;
  size_t CutStates = 0;
  size_t ViabilityPruned = 0;
  size_t ActionsFiltered = 0;
  /// Expansions refused by the syntactic prune (lint/PrefixLint.h): the
  /// instruction would plant a dead instruction in every completion.
  size_t SyntacticPruned = 0;
  /// Layered engine only: number of canonical states committed at each
  /// level (index = program length). Identical across thread counts and
  /// expansion modes for a fixed configuration, so the equivalence tests
  /// compare it level by level. Empty for the best-first engine.
  std::vector<size_t> LevelStates;
  /// High-water mark of state bytes: row arenas + dedup index + node
  /// metadata, sampled at every level commit (layered) or insertion
  /// (best-first). This is what SearchOptions::MaxStateBytes budgets.
  size_t PeakResidentBytes = 0;
  /// Per-stage wall-clock of the expansion pipeline, in nanoseconds; only
  /// collected when SearchOptions::ProfilePipeline is on (0 otherwise).
  /// Apply covers the batched row transforms; Canon the sort + perm-count
  /// + hash over canonical rows; Viability the action gate's successor-row
  /// fold (or, without a distance table, the erase check); Merge the
  /// dedup/DAG commit sections. With worker threads the first three sum
  /// CPU time across workers, so they can exceed wall-clock.
  uint64_t ApplyNanos = 0;
  uint64_t CanonNanos = 0;
  uint64_t ViabilityNanos = 0;
  uint64_t MergeNanos = 0;
  double Seconds = 0;
  bool TimedOut = false;
  bool MemoryLimited = false;
};

/// Result of a synthesis run.
struct SearchResult {
  bool Found = false;
  unsigned OptimalLength = 0;
  /// The kernels found: one program in best-first mode; up to
  /// MaxSolutionsKept reconstructed programs in FindAll mode.
  std::vector<Program> Solutions;
  /// Exact number of distinct optimal programs surviving the configured
  /// cuts (path count over the solution DAG); 1 in best-first mode.
  uint64_t SolutionCount = 0;
  SearchStats Stats;
  std::vector<TracePoint> Trace;
};

/// Synthesizes a sorting kernel for \p M. Dispatches to the layered engine
/// when Opts.FindAll or Opts.Layered is set, to the best-first engine
/// otherwise. \p SharedTable optionally reuses a prebuilt distance table
/// (they are deterministic per machine); pass nullptr to build on demand.
/// The table is used only when viability, the action filter, or the
/// NeededInstrs heuristic reads it.
SearchResult synthesize(const Machine &M, const SearchOptions &Opts,
                        const DistanceTable *SharedTable = nullptr);

/// \returns a valid initial length bound for the search (section 3.3 "an
/// initially given length bound"): the size of the minimal sorting
/// network's implementation — 4 comparators' instructions for the cmov
/// machine, 3 for min/max — which is always a correct kernel.
unsigned networkUpperBound(MachineKind Kind, unsigned N);

/// Result of synthesizeOptimal: the kernel plus its certificate.
struct OptimalSynthesis {
  SearchResult Synthesis;      ///< The synthesis run (Found, kernel, stats).
  bool MinimalityProven = false; ///< Length-(L-1) space shown empty.
  double ProofSeconds = 0;
};

/// End-to-end driver: synthesize with \p Opts, then certify minimality by
/// exhausting the space one instruction shorter (with only
/// optimality-preserving pruning). \p ProofTimeoutSeconds bounds the
/// certificate search only.
OptimalSynthesis synthesizeOptimal(const Machine &M, const SearchOptions &Opts,
                                   double ProofTimeoutSeconds = 0,
                                   const DistanceTable *SharedTable = nullptr);

/// Proves that no correct kernel of length <= \p Length exists by
/// exhaustive layered search with only optimality-preserving pruning
/// (dedup + admissible viability bound). \returns true when the proof
/// succeeded (search space exhausted without finding a kernel), false when
/// a kernel was found or the deadline expired (see Result.Stats.TimedOut).
bool proveNoKernelOfLength(const Machine &M, unsigned Length,
                           SearchResult &Result,
                           const DistanceTable *SharedTable = nullptr,
                           double TimeoutSeconds = 0);

} // namespace sks

#endif // SKS_SEARCH_SEARCH_H
