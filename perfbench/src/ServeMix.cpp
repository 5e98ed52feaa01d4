//===- perfbench/src/ServeMix.cpp - serve_mix: service, cache, protocol ---===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// serve_mix drives an in-process SynthService (enum policy, MinLength
/// requests, 2 workers) backed by a fresh kernel-cache directory, from two
/// closed-loop client threads. Every request is a wire line that goes
/// through parseRequestLine, the service, and responseLine.
///
/// Set-up stores a hot set of keys in a template cache directory; each
/// pass copies that template, so every pass starts from the same cache.
/// The stream is a fixed multiset drawn in a seeded order:
///
///  - hot keys (reads: lookup plus re-verification), in Zipf proportions;
///  - cold keys (writes: synthesis plus a store), each requested twice in
///    a row so the second client usually joins the first's in-flight
///    synthesis (coalescing).
///
/// A pass is 300 operations: 282 hot reads and 9 cold keys requested
/// twice. The three slow cold keys supply 6 operations per pass, so the
/// 99th percentile falls on the middle one of them and the median and the
/// 90th percentile fall among the hits.
///
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Workload.h"

#include "cache/KernelCache.h"
#include "service/Protocol.h"
#include "service/SynthService.h"
#include "support/Rng.h"

#include <atomic>
#include <filesystem>
#include <malloc.h>
#include <mutex>
#include <thread>
#include <unistd.h>

using namespace perfbench;
using namespace sks;
namespace fs = std::filesystem;

namespace {

/// A request as its wire fields.
struct KeySpec {
  const char *Isa;
  unsigned N;
  const char *Pred;
};

/// Hot keys, hottest first. All but minmax n = 5 top-1 (about 150 ms)
/// synthesize in a millisecond or less.
const KeySpec kHotKeys[] = {
    {"cmov", 2, "sort"},           {"minmax", 3, "sort"},
    {"cmov", 3, "select-1"},       {"minmax", 2, "sort"},
    {"cmov", 3, "top-1"},          {"minmax", 4, "top-1"},
    {"minmax", 5, "top-1"},        {"cmov", 3, "partial-sort-1"},
    {"minmax", 3, "select-2"},     {"cmov", 2, "select-1"},
    {"minmax", 3, "top-1"},        {"minmax", 4, "select-1"},
    {"minmax", 3, "select-1"},
};

/// Cold keys: the first three take 0.1-0.8 s to synthesize and form the
/// slow tail; the rest take about a millisecond.
const KeySpec kColdKeys[] = {
    {"cmov", 3, "sort"},           {"minmax", 5, "partial-sort-1"},
    {"minmax", 5, "select-1"},     {"minmax", 3, "top-2"},
    {"minmax", 3, "partial-sort-2"}, {"cmov", 3, "select-3"},
    {"minmax", 4, "partial-sort-1"}, {"minmax", 4, "select-4"},
    {"cmov", 2, "top-1"},
};

/// The smoke list: the two hottest keys and the cheapest cold key.
constexpr size_t kSmokeHotKeys = 2;
constexpr size_t kSmokeColdKeys = 1;
constexpr unsigned kHotOps = 282;
constexpr unsigned kSmokeHotOps = 20;
/// Lookups of each hot key in the standalone cache probe.
constexpr unsigned kLookupRepeats = 3;

enum ServeClass : unsigned { Hit, Miss };

std::string requestLine(const KeySpec &K, size_t Id) {
  return "{\"id\": " + std::to_string(Id) + ", \"n\": " + std::to_string(K.N) +
         ", \"isa\": \"" + K.Isa + "\", \"goal\": \"minlength\", " +
         "\"goal_pred\": \"" + K.Pred + "\", \"backend\": \"enum\"}";
}

ServiceOptions serviceOptions(const std::string &CacheDir) {
  ServiceOptions O;
  O.CacheDir = CacheDir;
  O.DefaultPolicy = "enum";
  O.Workers = 2;
  return O;
}

/// What one operation sent and got back.
struct Exchange {
  std::string Line;  ///< The request line.
  std::string Reply; ///< The response line.
  WireRequest Parsed;
  std::string ParseError;
  bool Cached = false; ///< Answered from the persistent cache.
};

class ServeMix final : public Workload {
public:
  explicit ServeMix(const WorkloadOptions &Opts) : Opts(Opts) {
    // One malloc arena for all threads, set before any thread starts. With
    // an arena per thread, peak RSS depended on which worker thread ran
    // which synthesis and read about 55 or 77 MB from run to run.
    mallopt(M_ARENA_MAX, 1);
    size_t NumHot = Opts.Smoke ? kSmokeHotKeys : std::size(kHotKeys);
    size_t FirstCold = Opts.Smoke ? std::size(kColdKeys) - kSmokeColdKeys : 0;
    unsigned HotOps = Opts.Smoke ? kSmokeHotOps : kHotOps;
    // Zipf (s = 1) proportions over the hot keys, rounded to a fixed
    // multiset; every hot key appears at least once.
    double Norm = 0;
    for (size_t R = 1; R <= NumHot; ++R)
      Norm += 1.0 / static_cast<double>(R);
    std::vector<size_t> Hot;
    for (size_t R = 1; R <= NumHot; ++R) {
      size_t Count = std::max<size_t>(
          1, static_cast<size_t>(HotOps / (Norm * R) + 0.5));
      Hot.insert(Hot.end(), Count, R - 1);
    }
    // Seeded order: shuffle the hot reads, then insert each cold pair at
    // a seeded position.
    Rng Rand(streamSeed(Opts.Seed, 5));
    for (size_t I = Hot.size(); I > 1; --I)
      std::swap(Hot[I - 1], Hot[Rand.below(I)]);
    std::vector<const KeySpec *> Keys;
    for (size_t K : Hot)
      Keys.push_back(&kHotKeys[K]);
    for (size_t C = FirstCold; C != std::size(kColdKeys); ++C) {
      size_t At = Rand.below(Keys.size() + 1);
      Keys.insert(Keys.begin() + At, 2, &kColdKeys[C]);
    }
    for (size_t I = 0; I != Keys.size(); ++I)
      Lines.push_back(requestLine(*Keys[I], I + 1));
    for (size_t K = 0; K != NumHot; ++K)
      HotLines.push_back(requestLine(kHotKeys[K], 0));
  }

  ~ServeMix() override {
    std::error_code Ignored;
    for (const std::string &Dir : Dirs)
      fs::remove_all(Dir, Ignored);
  }

  std::vector<std::string> classNames() const override {
    return {"hit", "miss"};
  }

  std::vector<std::string> describeOps() const override { return Lines; }

  std::vector<std::string> layers() const override {
    return {"service", "cache", "verify"};
  }

  bool setup(Tracer *) override {
    Template = freshDir();
    if (Template.empty())
      return false;
    for (const std::string &Line : HotLines) {
      WireRequest W;
      std::string Error;
      if (!parseRequestLine(Line, W, Error)) {
        std::fprintf(stderr, "perfbench: bad hot request: %s\n", Error.c_str());
        return false;
      }
      HotRequests.push_back(W.Req);
    }
    SynthService Service(serviceOptions(Template));
    PassResult Warm;
    for (const SynthRequest &Req : HotRequests) {
      SynthOutcome O = Service.synthesize(Req);
      unsigned Len = 0;
      std::string Why =
          checkReply(Req, "0", responseLine("0", O, Req.N, false, 0), Len);
      if (!Why.empty()) {
        reportFailure(Warm, "warming hot key: " + Why);
        return false;
      }
    }
    // The untimed warm-up operation: one hot read through the wire path.
    Exchange E;
    E.Line = HotLines.front();
    serve(nullptr, Service, E);
    unsigned Len = 0;
    return checkReply(HotRequests.front(), "0", E.Reply, Len).empty();
  }

  void runPass(Tracer *T, uint64_t PassNo, PassResult &Pass) override {
    // Untimed: a copy of the warmed cache and a service over it.
    std::string Dir = freshDir();
    std::error_code Error;
    if (!Dir.empty())
      fs::copy(Template, Dir, fs::copy_options::recursive, Error);
    if (Dir.empty() || Error) {
      reportFailure(Pass, "cannot copy the template cache directory");
      return;
    }
    std::vector<Exchange> Exchanges(Lines.size());
    for (size_t I = 0; I != Lines.size(); ++I)
      Exchanges[I].Line = Lines[I];
    ServiceStats Stats;
    CacheStats Cache;
    {
      SynthService Service(serviceOptions(Dir));
      std::atomic<size_t> Next{0};
      PassResult Second;
      auto Client = [&](PassResult &Out) {
        for (size_t I; (I = Next.fetch_add(1)) < Exchanges.size();) {
          timeOp(T, Out, PassNo * OpsPerPassStride + I + 1, Hit, false,
                 [&] { serve(T, Service, Exchanges[I]); });
          Out.Ops.back().Class = Exchanges[I].Cached ? Hit : Miss;
        }
      };
      double Cpu0 = cpuNow(), Wall0 = wallNow();
      std::jthread Other(Client, std::ref(Second));
      Client(Pass);
      Other.join();
      Pass.WallS = wallNow() - Wall0;
      Pass.CpuS = cpuNow() - Cpu0;
      Pass.Ops.insert(Pass.Ops.end(), Second.Ops.begin(), Second.Ops.end());
      Stats = Service.stats();
      Cache = Service.cache()->stats();
    }

    // Checks, outside the timed phase: every reply re-verified.
    for (size_t I = 0; I != Exchanges.size(); ++I) {
      const Exchange &E = Exchanges[I];
      ++Pass.Attempted;
      unsigned Len = 0;
      std::string Why =
          !E.ParseError.empty()
              ? "request did not parse: " + E.ParseError
              : [&] {
                  Span S(T, "verify.check");
                  return checkReply(E.Parsed.Req, E.Parsed.Id, E.Reply, Len);
                }();
      if (!Why.empty())
        reportFailure(Pass, "op " + std::to_string(I) + ": " + Why);
      else
        Pass.KernelLens.push_back(Len);
    }
    uint64_t Bad =
        Cache.Corrupt + Cache.VerifyFailed + Cache.StaleVersion +
        Cache.StaleVerifier;
    if (Bad)
      reportFailure(Pass, std::to_string(Bad) + " bad cache entries");
    if (T) {
      ++Totals.Passes;
      Totals.Received += Stats.Received;
      Totals.Hits += Stats.CacheHits;
      Totals.Coalesced += Stats.Coalesced;
      Totals.Rejected += Stats.Rejected;
      Totals.Stores += Cache.Stores;
      Totals.Bad += Bad;
      probeLookups(T, Dir);
    }
    fs::remove_all(Dir, Error);
  }

  void layerMetrics(const std::vector<SpanRecord> &Spans,
                    MetricMap &Out) override {
    double PerPass = Totals.Passes ? 1.0 / Totals.Passes : 0;
    Out["service.hit_us_p50"] = median(HitUs);
    Out["service.miss_ms_p50"] = median(MissMs);
    Out["service.protocol_us"] =
        (median(spanSeconds(Spans, "service.parse_request")) +
         median(spanSeconds(Spans, "service.response_line"))) *
        1e6;
    Out["service.hit_ratio"] =
        Totals.Received ? static_cast<double>(Totals.Hits) / Totals.Received
                        : 0;
    Out["service.coalesced"] = Totals.Coalesced * PerPass;
    Out["service.rejected"] = Totals.Rejected * PerPass;
    Out["cache.lookup_us_p50"] =
        median(spanSeconds(Spans, "cache.lookup")) * 1e6;
    Out["cache.stores"] = Totals.Stores * PerPass;
    Out["cache.bad_entries"] = Totals.Bad * PerPass;
    Out["verify.check_us"] = median(spanSeconds(Spans, "verify.check")) * 1e6;
  }

private:
  /// One request through the wire path: parse, the service, the reply.
  void serve(Tracer *T, SynthService &Service, Exchange &E) {
    bool Parsed;
    {
      Span S(T, "service.parse_request");
      Parsed = parseRequestLine(E.Line, E.Parsed, E.ParseError);
    }
    if (!Parsed)
      return;
    double Start = wallNow();
    SynthOutcome O;
    {
      Span S(T, "service.synthesize");
      O = Service.synthesize(E.Parsed.Req, &E.Cached);
    }
    double Seconds = wallNow() - Start;
    {
      Span S(T, "service.response_line");
      E.Reply =
          responseLine(E.Parsed.Id, O, E.Parsed.Req.N, E.Cached, Seconds);
    }
    if (T) {
      std::lock_guard<std::mutex> Lock(LatencyMutex);
      if (E.Cached)
        HitUs.push_back(Seconds * 1e6);
      else
        MissMs.push_back(Seconds * 1e3);
    }
  }

  /// Direct KernelCache::lookup of every hot key.
  void probeLookups(Tracer *T, const std::string &Dir) {
    CacheOptions CO;
    CO.Dir = Dir;
    KernelCache Cache(CO);
    for (unsigned Rep = 0; Rep != kLookupRepeats; ++Rep)
      for (const SynthRequest &Req : HotRequests) {
        SynthOutcome O;
        Span S(T, "cache.lookup");
        Cache.lookup(Req, O);
      }
  }

  /// Creates a new empty directory under the temp directory; "" on
  /// failure.
  std::string freshDir() {
    static std::atomic<unsigned> Counter{0};
    std::string Dir = Opts.TempDir + "/perfbench-serve-" +
                      std::to_string(::getpid()) + "-" +
                      std::to_string(Counter++);
    std::error_code Error;
    fs::remove_all(Dir, Error);
    if (!fs::create_directories(Dir, Error)) {
      std::fprintf(stderr, "perfbench: cannot create %s\n", Dir.c_str());
      return "";
    }
    Dirs.push_back(Dir);
    return Dir;
  }

  WorkloadOptions Opts;
  std::vector<std::string> Lines;    ///< The timed stream.
  std::vector<std::string> HotLines; ///< One line per hot key.
  std::vector<SynthRequest> HotRequests;
  std::string Template;
  std::vector<std::string> Dirs; ///< Removed on destruction.

  struct {
    unsigned Passes = 0;
    uint64_t Received = 0, Hits = 0, Coalesced = 0, Rejected = 0, Stores = 0,
             Bad = 0;
  } Totals;
  std::mutex LatencyMutex; ///< Guards HitUs and MissMs.
  std::vector<double> HitUs, MissMs;
};

} // namespace

std::unique_ptr<Workload> perfbench::makeServeMix(const WorkloadOptions &Opts) {
  return std::make_unique<ServeMix>(Opts);
}
