//===- perfbench/src/Trace.cpp - Spans around calls into layers -----------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <atomic>
#include <cstdio>
#include <cstring>

using namespace perfbench;

namespace {

/// The calling thread's open spans, innermost last.
thread_local std::vector<size_t> OpenSpans;

uint32_t threadNumber() {
  static std::atomic<uint32_t> Next{0};
  thread_local uint32_t Mine = Next++;
  return Mine;
}

} // namespace

size_t Tracer::open(const char *Name, uint64_t OpId) {
  SpanRecord R;
  R.Name = Name;
  R.Thread = threadNumber();
  std::lock_guard<std::mutex> Lock(Mutex);
  if (!OpenSpans.empty()) {
    R.Parent = static_cast<int64_t>(OpenSpans.back());
    if (OpId == 0)
      OpId = Spans[OpenSpans.back()].OpId;
  }
  R.OpId = OpId;
  R.Start = wallNow();
  Spans.push_back(R);
  OpenSpans.push_back(Spans.size() - 1);
  return Spans.size() - 1;
}

void Tracer::close(size_t Index) {
  double End = wallNow();
  std::lock_guard<std::mutex> Lock(Mutex);
  Spans[Index].End = End;
  OpenSpans.pop_back();
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Spans;
}

bool Tracer::append(const std::string &Path, const std::string &Source) const {
  std::vector<SpanRecord> All = spans();
  std::FILE *F = std::fopen(Path.c_str(), "a");
  if (!F)
    return false;
  double Epoch = All.empty() ? 0 : All.front().Start;
  for (const SpanRecord &S : All)
    std::fprintf(F,
                 "{\"source\": \"%s\", \"name\": \"%s\", \"start_us\": %.3f, "
                 "\"end_us\": %.3f, \"parent\": %lld, \"op\": %llu, "
                 "\"thread\": %u}\n",
                 Source.c_str(), S.Name, (S.Start - Epoch) * 1e6,
                 (S.End - Epoch) * 1e6, static_cast<long long>(S.Parent),
                 static_cast<unsigned long long>(S.OpId), S.Thread);
  return std::fclose(F) == 0;
}

std::vector<double> perfbench::spanSeconds(const std::vector<SpanRecord> &Spans,
                                           const char *Name) {
  std::vector<double> Out;
  for (const SpanRecord &S : Spans)
    if (std::strcmp(S.Name, Name) == 0)
      Out.push_back(S.seconds());
  return Out;
}
