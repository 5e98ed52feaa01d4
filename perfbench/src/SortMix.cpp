//===- perfbench/src/SortMix.cpp - sort_mix: codegen and sortlib ----------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// sort_mix exercises codegen and sortlib and does no search. Set-up loads
/// the prebuilt kernels, checks them, proves their JIT emission with the
/// translation validator and compiles them (int32 and packed 64-bit pair
/// lanes). The timed operations are a seed-shuffled fixed multiset of
/// sortlib calls on int32 arrays of length 1..20000 (the section 5.3
/// embedded shape): quicksort and mergesort with kernel base cases, the
/// key/payload sort, median selection and top-k. Array contents come from
/// the seed; every output is compared with the std:: algorithm's.
///
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Workload.h"

#include "codegen/Jit.h"
#include "kernels/KernelIO.h"
#include "search/Search.h"
#include "sortlib/SortLib.h"
#include "support/Rng.h"
#include "validate/SymbolicExec.h"

#include <algorithm>

using namespace perfbench;
using namespace sks;

namespace {

enum SortClass : unsigned {
  Quicksort,
  Mergesort,
  SortKeyVal,
  SelectMedian,
  TopK,
  NumSortClasses
};

const char *const kSortClassNames[NumSortClasses] = {
    "quicksort", "mergesort", "sortkeyval", "selectk-median", "topk"};

/// Span names of the sortlib entry points, by class.
const char *const kSortSpans[NumSortClasses] = {
    "sortlib.quicksort", "sortlib.mergesort", "sortlib.sortkeyval",
    "sortlib.selectk", "sortlib.topk"};

constexpr size_t kMaxLen = 20000;
constexpr unsigned kArraysPerClass = 400;
constexpr unsigned kSmokeArraysPerClass = 4;
/// Kernel calls per standalone codegen batch.
constexpr size_t kBatchCalls = 1 << 14;

/// The prebuilt kernels the base cases use.
const char *const kKernelFiles[] = {"sort2_cmov.sks", "sort3_cmov.sks",
                                    "sort4_cmov.sks", "sort3_minmax.sks"};

struct SortOp {
  SortClass Class;
  size_t Len;
  uint64_t DataSeed;
  std::vector<int32_t> Input; ///< Drawn from DataSeed in set-up.
};

/// Draws \p Op's array: values in -10000..10000, as in section 5.3.
void drawInput(SortOp &Op) {
  Rng R(Op.DataSeed);
  Op.Input.resize(Op.Len);
  for (int32_t &V : Op.Input)
    V = static_cast<int32_t>(R.range(-10000, 10000));
}

size_t topKCount(size_t Len) { return 1 + Len / 64; }

class SortMix final : public Workload {
public:
  explicit SortMix(const WorkloadOptions &Opts) : Opts(Opts) {
    // Fixed multiset: per class, lengths on an even grid over 1..20000;
    // the seed draws the order and each array's contents.
    unsigned PerClass = Opts.Smoke ? kSmokeArraysPerClass : kArraysPerClass;
    Rng R(streamSeed(Opts.Seed, 2));
    for (unsigned C = 0; C != NumSortClasses; ++C)
      for (unsigned J = 0; J != PerClass; ++J)
        Ops.push_back({static_cast<SortClass>(C),
                       1 + (kMaxLen - 1) * (2 * J + 1) / (2 * PerClass),
                       R.next(),
                       {}});
    for (size_t I = Ops.size(); I > 1; --I)
      std::swap(Ops[I - 1], Ops[R.below(I)]);
  }

  std::vector<std::string> classNames() const override {
    return {std::begin(kSortClassNames), std::end(kSortClassNames)};
  }

  std::vector<std::string> describeOps() const override {
    std::vector<std::string> Lines;
    for (const SortOp &Op : Ops)
      Lines.push_back(std::string(kSortClassNames[Op.Class]) + " len=" +
                      std::to_string(Op.Len) +
                      " data=" + std::to_string(Op.DataSeed));
    return Lines;
  }

  std::vector<std::string> layers() const override {
    return {"verify", "codegen", "validate", "sortlib", "control"};
  }

  bool setup(Tracer *T) override {
    for (SortOp &Op : Ops)
      drawInput(Op);
    for (const char *File : kKernelFiles)
      if (!loadAndCompile(T, Opts.KernelsDir + "/" + File))
        return false;
    // Quicksort, key/payload, selection and top-k: the cmov kernels for
    // 2..4 elements. Mergesort: cmov n = 2 and the min/max n = 3 kernel.
    for (const Loaded &K : Kernels) {
      if (K.Kind == MachineKind::Cmov) {
        CmovBase.setKernel(K.N, K.Jit->entry());
        PairBase.setKernel(K.N, K.Pair->entry());
        if (K.N == 2)
          MinMaxBase.setKernel(2, K.Jit->entry());
      } else {
        MinMaxBase.setKernel(K.N, K.Jit->entry());
      }
    }
    PassResult Warm;
    SortOp WarmOp{Quicksort, 1000, streamSeed(Opts.Seed, 3), {}};
    drawInput(WarmOp);
    runOp(nullptr, WarmOp, 0, 0, Warm);
    return Warm.Failed == 0;
  }

  void runPass(Tracer *T, uint64_t PassNo, PassResult &Pass) override {
    for (size_t I = 0; I != Ops.size(); ++I)
      runOp(T, Ops[I], PassNo * OpsPerPassStride + I + 1, I, Pass);
    for (const Loaded &K : Kernels)
      Pass.KernelLens.push_back(static_cast<unsigned>(K.P.size()));
    if (T)
      timeKernelBatches(T);
  }

  void layerMetrics(const std::vector<SpanRecord> &Spans,
                    MetricMap &Out) override {
    auto Sum = [&](const char *Name) {
      double S = 0;
      for (double D : spanSeconds(Spans, Name))
        S += D;
      return S;
    };
    auto NsPer = [&](const char *Name, double Count) {
      return Count > 0 ? Sum(Name) * 1e9 / Count : 0;
    };
    static const char *const Metrics[NumSortClasses] = {
        "sortlib.quicksort_ns_per_elem", "sortlib.mergesort_ns_per_elem",
        "sortlib.sortkeyval_ns_per_elem", "sortlib.selectk_ns_per_elem",
        "sortlib.topk_ns_per_elem"};
    for (unsigned C = 0; C != NumSortClasses; ++C)
      Out[Metrics[C]] = NsPer(kSortSpans[C], static_cast<double>(Elems[C]));
    Out["control.std_sort_ns_per_elem"] =
        NsPer("control.std_sort", static_cast<double>(Elems[Quicksort]));
    Out["codegen.kernel_ns"] =
        NsPer("codegen.kernel_batch", static_cast<double>(KernelCalls));
    Out["codegen.pair_kernel_ns"] =
        NsPer("codegen.pair_kernel_batch", static_cast<double>(PairCalls));
    Out["codegen.compile_us"] = median(spanSeconds(Spans, "codegen.compile")) * 1e6;
    Out["validate.proof_us"] = median(spanSeconds(Spans, "validate.proof")) * 1e6;
    Out["verify.check_us"] = median(spanSeconds(Spans, "verify.check")) * 1e6;
  }

private:
  struct Loaded {
    MachineKind Kind;
    unsigned N;
    Program P;
    std::unique_ptr<JitKernel> Jit;
    std::unique_ptr<JitPairKernel> Pair; ///< Cmov kernels only.
  };

  /// Loads one kernel file, checks it, proves its emission and compiles
  /// it. \returns false (after reporting) on any failure.
  bool loadAndCompile(Tracer *T, const std::string &Path) {
    SavedKernel S;
    if (!loadKernel(Path, S)) {
      std::fprintf(stderr, "perfbench: cannot load %s\n", Path.c_str());
      return false;
    }
    Loaded K{S.Kind, S.N, S.P, nullptr, nullptr};
    Machine M(S.Kind, S.N);
    std::string Why;
    {
      Span Sp(T, "verify.check");
      Why = checkKernel(M, S.P, networkUpperBound(S.Kind, S.N));
    }
    bool Pair = S.Kind == MachineKind::Cmov;
    bool Proven;
    {
      Span Sp(T, "validate.proof");
      Proven = validateJitKernel(S.Kind, S.N, S.P).Ok;
    }
    if (Pair) {
      Span Sp(T, "validate.proof");
      Proven = Proven && validateJitPairKernel(S.Kind, S.N, S.P).Ok;
    }
    {
      Span Sp(T, "codegen.compile");
      K.Jit = JitKernel::compile(S.Kind, S.N, S.P);
    }
    if (Pair) {
      Span Sp(T, "codegen.compile");
      K.Pair = JitPairKernel::compile(S.Kind, S.N, S.P);
    }
    if (!Why.empty() || !Proven || !K.Jit || (Pair && !K.Pair)) {
      std::fprintf(stderr, "perfbench: kernel %s unusable: %s\n", Path.c_str(),
                   !Why.empty() ? Why.c_str()
                   : !Proven    ? "JIT emission not proven"
                                : "JIT compile failed");
      return false;
    }
    Kernels.push_back(std::move(K));
    return true;
  }

  /// Runs one operation on a copy of its input, then checks it.
  void runOp(Tracer *T, const SortOp &Op, uint64_t OpId, size_t Index,
             PassResult &Pass) {
    const std::vector<int32_t> &In = Op.Input;
    Out = In;
    if (Op.Class == SortKeyVal) {
      InPayloads.resize(Op.Len);
      for (size_t I = 0; I != Op.Len; ++I)
        InPayloads[I] = static_cast<uint32_t>(I);
      OutPayloads = InPayloads;
    }
    size_t K = Op.Class == TopK ? topKCount(Op.Len) : (Op.Len + 1) / 2;
    timeOp(T, Pass, OpId, Op.Class, true, [&] {
      Span S(T, kSortSpans[Op.Class]);
      switch (Op.Class) {
      case Quicksort:
        quicksortWithKernel(Out.data(), Op.Len, CmovBase);
        break;
      case Mergesort:
        mergesortWithKernel(Out.data(), Op.Len, MinMaxBase);
        break;
      case SortKeyVal:
        sortKeyVal(Out.data(), OutPayloads.data(), Op.Len, PairBase);
        break;
      case SelectMedian:
        selectK(Out.data(), Op.Len, K, CmovBase);
        break;
      case TopK:
        topK(Out.data(), Op.Len, K, CmovBase);
        break;
      case NumSortClasses:
        break;
      }
    });
    ++Pass.Attempted;
    std::string Why;
    switch (Op.Class) {
    case Quicksort:
    case Mergesort:
      Why = checkSorted(In, Out);
      break;
    case SortKeyVal:
      Why = checkKeyValSorted(In, InPayloads, Out, OutPayloads);
      break;
    case SelectMedian:
      Why = checkSelected(In, Out, K);
      break;
    case TopK:
      Why = checkTopK(In, Out, K);
      break;
    case NumSortClasses:
      break;
    }
    if (!Why.empty())
      reportFailure(Pass, "op " + std::to_string(Index) + " (" +
                              kSortClassNames[Op.Class] + " len " +
                              std::to_string(Op.Len) + "): " + Why);
    if (T) {
      Elems[Op.Class] += Op.Len;
      if (Op.Class == Quicksort) {
        // The control: std::sort on the same array.
        Out = In;
        Span S(T, "control.std_sort");
        std::sort(Out.begin(), Out.end());
      }
    }
  }

  /// Standalone kernel calls: each compiled kernel over a batch of
  /// n-element arrays, int32 lanes and packed pair lanes.
  void timeKernelBatches(Tracer *T) {
    Rng R(streamSeed(Opts.Seed, 4));
    std::vector<int32_t> Data(kBatchCalls * 4);
    std::vector<int64_t> Pairs(kBatchCalls * 4);
    for (size_t I = 0; I != Data.size(); ++I) {
      Data[I] = static_cast<int32_t>(R.range(-10000, 10000));
      Pairs[I] = packPair(Data[I], static_cast<uint32_t>(I));
    }
    for (const Loaded &K : Kernels) {
      {
        Span S(T, "codegen.kernel_batch");
        for (size_t I = 0; I != kBatchCalls; ++I)
          (*K.Jit)(Data.data() + I * K.N);
        KernelCalls += kBatchCalls;
      }
      if (K.Pair) {
        Span S(T, "codegen.pair_kernel_batch");
        for (size_t I = 0; I != kBatchCalls; ++I)
          (*K.Pair)(Pairs.data() + I * K.N);
        PairCalls += kBatchCalls;
      }
    }
  }

  WorkloadOptions Opts;
  std::vector<SortOp> Ops;
  std::vector<Loaded> Kernels;
  BaseCase CmovBase{4};
  BaseCase MinMaxBase{3};
  PairBaseCase PairBase{4};
  /// Working buffers, reused across operations.
  std::vector<int32_t> Out;
  std::vector<uint32_t> InPayloads, OutPayloads;
  /// Elements handed to each entry point in the traced passes.
  uint64_t Elems[NumSortClasses] = {};
  /// Standalone kernel calls made by timeKernelBatches().
  uint64_t KernelCalls = 0, PairCalls = 0;
};

} // namespace

std::unique_ptr<Workload> perfbench::makeSortMix(const WorkloadOptions &Opts) {
  return std::make_unique<SortMix>(Opts);
}
