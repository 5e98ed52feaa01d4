//===- analysis/Symmetry.h - Program register canonicalization -*- C++ -*-===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Register-renaming symmetry of kernel PROGRAMS, behind the sks-lint rule
/// non-canonical-registers (DESIGN.md section 11). Scratch registers start
/// out interchangeable: renaming them consistently through a whole kernel
/// (cmp operands re-normalized into the alphabet's Dst < Src order, and
/// every conditional move reading the swapped flags flipped) yields a
/// behaviorally identical kernel of the same length. canonicalProgram
/// picks one representative per renaming orbit so the rule can point at
/// kernel files that spell a kernel in non-canonical register names.
///
//===----------------------------------------------------------------------===//

#ifndef SKS_ANALYSIS_SYMMETRY_H
#define SKS_ANALYSIS_SYMMETRY_H

#include "isa/Instr.h"

namespace sks {

/// Program-level canonical renaming (the sks-lint rule
/// non-canonical-registers). Considers permutations of the scratch
/// registers [NumData, NumRegs) — NumRegs inferred from the highest
/// register the program touches — renames the whole program by each
/// (cmp operands re-normalized, conditional moves flipped through the
/// forced parity), and picks the encoded-lexicographically-least result.
/// Programs have NO free flag involution: the parity is forced by cmp
/// normalization, so the group here is m! alone and every m = 1 kernel is
/// trivially canonical. Mixed-file (hybrid) programs are skipped (returned
/// unchanged): the file split is not recoverable from the text alone.
/// \returns the canonical program (== \p P when already canonical).
Program canonicalProgram(const Program &P, unsigned NumData);

/// \returns true when \p P equals its canonicalProgram().
bool isCanonicalProgram(const Program &P, unsigned NumData);

} // namespace sks

#endif // SKS_ANALYSIS_SYMMETRY_H
