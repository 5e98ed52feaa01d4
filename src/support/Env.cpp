//===- support/Env.cpp - Strict numeric parsing and env knobs -------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Env.h"

#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace sks;

bool sks::parseUnsigned(const char *Text, uint64_t Max, uint64_t &Out) {
  // strtoull would skip whitespace and negate a leading '-'; demand a digit.
  if (!Text || !std::isdigit(static_cast<unsigned char>(Text[0])))
    return false;
  char *End = nullptr;
  errno = 0;
  unsigned long long Parsed = std::strtoull(Text, &End, 10);
  if (errno == ERANGE || *End != '\0' || Parsed > Max)
    return false;
  Out = Parsed;
  return true;
}

bool sks::parseNonNegative(const char *Text, double &Out) {
  if (!Text || !(std::isdigit(static_cast<unsigned char>(Text[0])) ||
                 Text[0] == '.'))
    return false;
  char *End = nullptr;
  errno = 0;
  double Parsed = std::strtod(Text, &End);
  if (errno == ERANGE || *End != '\0' || !std::isfinite(Parsed))
    return false;
  Out = Parsed;
  return true;
}

bool sks::parseFlag(const char *Flag, const char *Text, uint64_t Min,
                    uint64_t Max, uint64_t &Out) {
  uint64_t Parsed;
  if (Text && parseUnsigned(Text, Max, Parsed) && Parsed >= Min) {
    Out = Parsed;
    return true;
  }
  if (Text)
    std::fprintf(stderr, "error: %s: '%s' is not an integer in [%llu, %llu]\n",
                 Flag, Text, static_cast<unsigned long long>(Min),
                 static_cast<unsigned long long>(Max));
  return false;
}

bool sks::parseFlag(const char *Flag, const char *Text, bool Positive,
                    double &Out) {
  double Parsed;
  if (Text && parseNonNegative(Text, Parsed) && (!Positive || Parsed > 0)) {
    Out = Parsed;
    return true;
  }
  if (Text)
    std::fprintf(stderr, "error: %s: '%s' is not a %s number\n", Flag, Text,
                 Positive ? "positive" : "non-negative");
  return false;
}

bool sks::isFullRun() {
  const char *Value = std::getenv("SKS_FULL");
  return Value && std::strcmp(Value, "0") != 0 && Value[0] != '\0';
}

long sks::envInt(const char *Name, long Default) {
  uint64_t Parsed;
  return parseUnsigned(std::getenv(Name), LONG_MAX, Parsed)
             ? static_cast<long>(Parsed)
             : Default;
}

double sks::envDouble(const char *Name, double Default) {
  double Parsed;
  return parseNonNegative(std::getenv(Name), Parsed) ? Parsed : Default;
}
