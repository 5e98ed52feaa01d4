//===- support/Env.h - Strict numeric parsing and env knobs ----*- C++ -*-===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Strict parsing of numeric text, shared by the command-line tools and the
/// benchmark harness's environment-variable knobs. The paper's slow
/// experiments (n=5 synthesis, the n=4 length-19 exhaustion, the full n=4
/// solution walk) are gated behind SKS_FULL=1 so the default bench run
/// finishes in minutes on one core.
///
//===----------------------------------------------------------------------===//

#ifndef SKS_SUPPORT_ENV_H
#define SKS_SUPPORT_ENV_H

#include <cstdint>

namespace sks {

/// Parses all of \p Text as one non-negative decimal integer no larger than
/// \p Max. Signs, surrounding whitespace, trailing characters and overflow
/// are rejected. \returns false (leaving \p Out untouched) on rejection.
bool parseUnsigned(const char *Text, uint64_t Max, uint64_t &Out);

/// Parses all of \p Text as one finite, non-negative decimal number, with
/// the same rejections as parseUnsigned.
bool parseNonNegative(const char *Text, double &Out);

/// parseUnsigned and parseNonNegative for the value \p Text of command-line
/// flag \p Flag (null when the value is missing), with a lower bound: \p Min
/// for integers, > 0 for \p Positive numbers. A present but rejected value
/// prints one "error:" line naming the flag to stderr.
bool parseFlag(const char *Flag, const char *Text, uint64_t Min, uint64_t Max,
               uint64_t &Out);
bool parseFlag(const char *Flag, const char *Text, bool Positive, double &Out);

/// \returns true when SKS_FULL=1: run the paper-scale experiments.
bool isFullRun();

/// \returns the value of environment variable \p Name, or \p Default when
/// it is unset or parseUnsigned rejects it.
long envInt(const char *Name, long Default);

/// \returns the value of environment variable \p Name, or \p Default when
/// it is unset or parseNonNegative rejects it.
double envDouble(const char *Name, double Default);

} // namespace sks

#endif // SKS_SUPPORT_ENV_H
