//===- lint/Lint.h - Kernel dataflow linter --------------------*- C++ -*-===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A rule-based diagnostic engine over sks::Program, built on the dataflow
/// analyses of lint/Dataflow.h. Neri's inspection of AlphaDev's published
/// Sort3 (which contained a statically removable mov) is the motivating
/// example: every rule here proves, from the instruction sequence alone,
/// that an instruction is removable or that the program depends on
/// incidental machine state. The rules:
///
///  - dead-code:        an instruction's result is never observed (its
///                      destination is overwritten, or the program ends,
///                      before any read); iterated, so a chain feeding only
///                      dead instructions is reported in full;
///  - dead-cmp:         a cmp whose flags are clobbered by another cmp (or
///                      fall off the end) before any conditional move reads
///                      them;
///  - stale-flags:      a conditional move executed before any cmp has set
///                      the flags — the machine clears them at entry, so
///                      the move never fires;
///  - self-move:        mov/cmov/pmin/pmax with dst == src (a no-op) or a
///                      cmp of a register with itself (clears both flags);
///  - uninit-read:      a scratch register is read before the program
///                      DEFINITELY writes it (a conditional move's
///                      maybe-write does not count: when the flag is clear
///                      the read still sees the initial value) — legal
///                      under the machine model (scratch is
///                      zero-initialized) but a portability hazard for a
///                      kernel lowered to real x86, where scratch holds
///                      garbage;
///  - scratch-live-out: the flow-sensitive sharpening of uninit-read: the
///                      scratch register's INITIAL value actually reaches
///                      the sorted output (it is live into the kernel, i.e.
///                      live-out of whatever the surrounding code last did
///                      with the register).
///
/// The first four rules prove an instruction removable, so they carry
/// Warning severity and any of them makes a program non-minimal; the last
/// two are Note severity — 1366 of the 5602 optimal n=3 kernels genuinely
/// exploit the zero-initialized scratch register and are still optimal.
/// isLintClean() therefore gates on Warning and above by default.
///
//===----------------------------------------------------------------------===//

#ifndef SKS_LINT_LINT_H
#define SKS_LINT_LINT_H

#include "isa/Instr.h"

#include <string>
#include <vector>

namespace sks {

/// The lint rules (see file comment for the exact conditions). The last
/// three are the semantic rules of analysis/AbstractInterp.h — they share
/// the enum and the Diagnostic type so sks-lint reports one merged stream,
/// but lintProgram() itself stays purely syntactic (the analysis library
/// layers on top of lint, not the other way around):
///
///  - redundant-cmp:     cmp whose outcome the established partial order
///                       already determines;
///  - noop-cmov:         conditional move that provably never fires or
///                       moves an equal value;
///  - order-established: mov/pmin/pmax whose result the destination
///                       already provably holds;
///  - non-canonical-registers: the program register canonicalization
///                       (analysis/Symmetry.h canonicalProgram): some
///                       scratch-register renaming yields a lexicograph-
///                       ically smaller equivalent kernel. Informational
///                       (Note): the kernel is correct and equally
///                       optimal, just not the orbit representative.
enum class LintRule {
  DeadCode,
  DeadCmp,
  StaleFlags,
  SelfMove,
  UninitRead,
  ScratchLiveOut,
  RedundantCmp,
  NoopCmov,
  OrderEstablished,
  NonCanonicalRegisters,
};

/// \returns the stable kebab-case rule name ("dead-code", ...).
const char *lintRuleName(LintRule Rule);

/// Diagnostic severities. Warning and above prove the program non-minimal;
/// Note records a dependence on incidental machine state.
enum class LintSeverity { Note, Warning, Error };

/// \returns "note" / "warning" / "error".
const char *lintSeverityName(LintSeverity Severity);

/// One finding of the linter, anchored at an instruction.
struct Diagnostic {
  LintRule Rule;
  unsigned InstrIndex;
  LintSeverity Severity;
  std::string Message;
};

/// Renders one diagnostic, e.g.
/// "instr 3 (mov s1 r1): warning: [dead-code] result of s1 is never read".
std::string toString(const Diagnostic &D, const Program &P, unsigned NumData);

/// Runs every rule over \p P. Registers [0, NumData) are the data
/// registers (initialized with the input and observed at exit); everything
/// else is scratch. Diagnostics are ordered by instruction index.
std::vector<Diagnostic> lintProgram(const Program &P, unsigned NumData);

/// \returns true if \p P has no diagnostic at or above \p MinSeverity.
bool isLintClean(const Program &P, unsigned NumData,
                 LintSeverity MinSeverity = LintSeverity::Warning);

} // namespace sks

#endif // SKS_LINT_LINT_H
