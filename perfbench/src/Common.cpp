//===- perfbench/src/Common.cpp - Clocks, quantiles, run records ----------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <sys/resource.h>

using namespace perfbench;

double perfbench::wallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double perfbench::cpuNow() {
  timespec Ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &Ts);
  return static_cast<double>(Ts.tv_sec) + 1e-9 * static_cast<double>(Ts.tv_nsec);
}

double perfbench::peakRssMb() {
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

double perfbench::quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  double Pos = Q * static_cast<double>(Values.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, Values.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return Values[Lo] + Frac * (Values[Hi] - Values[Lo]);
}

uint64_t perfbench::streamSeed(uint64_t Seed, uint64_t Stream) {
  uint64_t Z = Seed * 0x9e3779b97f4a7c15ull + Stream * 0xbf58476d1ce4e5b9ull +
               0x94d049bb133111ebull;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

void perfbench::reportFailure(PassResult &Pass, const std::string &What) {
  ++Pass.Failed;
  std::fprintf(stderr, "perfbench: FAILED %s\n", What.c_str());
}
