//===- tests/ValidateTest.cpp - Translation-validation tests ---------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The decoder and symbolic executor of validate/: acceptance on every
// shipped and reference kernel across all emission paths, hostile-input
// robustness (every-prefix truncation and a random byte-flip corpus —
// run under the sanitizer trees, these double as memory-safety proofs),
// discipline-layer unit tests from hand-assembled streams, and the
// mutation pin: targeted semantic byte-mutants of real emissions must be
// rejected without exception.
//
//===----------------------------------------------------------------------===//

#include "validate/Decoder.h"
#include "validate/SymbolicExec.h"

#include "codegen/Jit.h"
#include "kernels/KernelIO.h"
#include "kernels/ReferenceKernels.h"
#include "search/Search.h"
#include "support/Rng.h"

#include <algorithm>
#include <atomic>
#include <gtest/gtest.h>
#include <thread>
#include <vector>

using namespace sks;

namespace {

/// The four emission paths of one (Kind, N, P) kernel.
struct EmissionPath {
  const char *Name;
  bool PairLanes;
  EmittedCode Code;
};

std::vector<EmissionPath> emitAllPaths(MachineKind Kind, unsigned N,
                                       const Program &P) {
  return {{"scalar", false, emitKernelBytes(Kind, N, P)},
          {"pair", true, emitPairKernelBytes(Kind, N, P)}};
}

ValidationReport validatePath(const EmissionPath &Path, MachineKind Kind,
                              unsigned N, const Program &P) {
  return validateKernelBytes(Path.Code.Bytes.data(), Path.Code.Bytes.size(),
                             Kind, N, P, GoalSpec::sort(), Path.PairLanes);
}

bool hasRule(const ValidationReport &R, ValidationRule Rule) {
  return std::any_of(R.Findings.begin(), R.Findings.end(),
                     [Rule](const ValidationFinding &F) {
                       return F.Rule == Rule;
                     });
}

//===----------------------------------------------------------------------===//
// Decoder: round trips and typed rejections
//===----------------------------------------------------------------------===//

TEST(Decoder, RoundTripsEveryEmissionPath) {
  for (MachineKind Kind : {MachineKind::Cmov, MachineKind::MinMax})
    for (unsigned N = 2; N <= 6; ++N) {
      Program P = Kind == MachineKind::Cmov ? sortingNetworkCmov(N)
                                            : sortingNetworkMinMax(N);
      for (const EmissionPath &Path : emitAllPaths(Kind, N, P)) {
        ASSERT_EQ(Path.Code.Status, EmitStatus::Ok);
        DecodeResult D =
            decodeX86(Path.Code.Bytes.data(), Path.Code.Bytes.size());
        ASSERT_TRUE(D.Ok) << Path.Name << " n=" << N << ": " << D.Error;
        ASSERT_FALSE(D.Insns.empty());
        EXPECT_EQ(D.Insns.back().Op, X86Op::Ret);
        // Every decoded instruction covers its bytes exactly; the stream
        // has no gaps or overlaps.
        uint32_t Expect = 0;
        for (const X86Insn &I : D.Insns) {
          EXPECT_EQ(I.Offset, Expect);
          EXPECT_GT(I.Length, 0u);
          Expect += I.Length;
        }
        EXPECT_EQ(Expect, Path.Code.Bytes.size());
      }
    }
}

TEST(Decoder, RejectsStreamsOutsideTheSubset) {
  auto Reject = [](std::vector<uint8_t> Bytes, const char *Why) {
    DecodeResult D = decodeX86(Bytes.data(), Bytes.size());
    EXPECT_FALSE(D.Ok) << Why;
    EXPECT_FALSE(D.Error.empty()) << Why;
  };
  Reject({}, "empty stream (no ret)");
  Reject({0x90, 0xC3}, "nop is not in the subset");
  Reject({0x40, 0x31, 0xC0, 0xC3}, "non-canonical empty REX");
  Reject({0x42, 0x8B, 0xC1, 0xC3}, "REX.X has no SIB to index");
  Reject({0xC3, 0x00}, "trailing bytes after ret");
  Reject({0x8B, 0xC1}, "stream ends without ret");
  Reject({0x8B}, "truncated ModRM");
  Reject({0x31, 0xC1, 0xC3}, "xor with distinct operands");
  Reject({0x66, 0x0F, 0xEF, 0xC1, 0xC3}, "pxor with distinct operands");
  Reject({0x8B, 0x07, 0xC3}, "mov [rdi] without disp8 (mod=00)");
  Reject({0x8B, 0x45, 0x00, 0xC3}, "memory base other than rdi");
  Reject({0x41, 0x89, 0x47, 0x00, 0xC3}, "REX.B on a memory form");
  Reject({0x48, 0xC3}, "REX prefix on ret");
  Reject({0x0F, 0x4E, 0xC1, 0xC3}, "cmovle is not in the subset");
  Reject({0x66, 0x0F, 0x38, 0x40, 0xC1, 0xC3}, "pmulld is not in the subset");
  Reject({0xF3, 0x0F, 0x6F, 0x07, 0xC3}, "movdqu is not in the subset");
}

TEST(Decoder, EveryPrefixTruncationIsRejected) {
  for (MachineKind Kind : {MachineKind::Cmov, MachineKind::MinMax}) {
    Program P = Kind == MachineKind::Cmov ? sortingNetworkCmov(4)
                                          : sortingNetworkMinMax(4);
    for (const EmissionPath &Path : emitAllPaths(Kind, 4, P)) {
      ASSERT_EQ(Path.Code.Status, EmitStatus::Ok);
      // The whole stream validates, so each rejection below is the cut's.
      ValidationReport Whole = validatePath(Path, Kind, 4, P);
      ASSERT_TRUE(Whole.Ok) << Path.Name << ": " << Whole.summary();
      for (size_t Len = 0; Len != Path.Code.Bytes.size(); ++Len) {
        DecodeResult D = decodeX86(Path.Code.Bytes.data(), Len);
        EXPECT_FALSE(D.Ok) << Path.Name << " truncated to " << Len;
        ValidationReport R = validateKernelBytes(Path.Code.Bytes.data(), Len,
                                                 Kind, 4, P, GoalSpec::sort(),
                                                 Path.PairLanes);
        EXPECT_TRUE(R.Applicable);
        EXPECT_FALSE(R.Ok) << Path.Name << " truncated to " << Len;
      }
    }
  }
}

TEST(Decoder, RandomByteFlipCorpusNeverCrashes) {
  // Robustness, not rejection: a flipped byte may still decode (even, in
  // rare reg-redirection cases, still validate — the validator proves
  // equivalence, not byte identity). The property under test is that the
  // decoder and executor stay total and internally consistent on the
  // whole corpus; under the ASan/UBSan trees this is a memory-safety
  // sweep of the hostile-input paths.
  Rng R(12345);
  for (MachineKind Kind : {MachineKind::Cmov, MachineKind::MinMax}) {
    Program P = Kind == MachineKind::Cmov ? sortingNetworkCmov(3)
                                          : sortingNetworkMinMax(3);
    for (const EmissionPath &Path : emitAllPaths(Kind, 3, P)) {
      ASSERT_EQ(Path.Code.Status, EmitStatus::Ok);
      for (int Trial = 0; Trial != 500; ++Trial) {
        std::vector<uint8_t> Mutant = Path.Code.Bytes;
        size_t At = static_cast<size_t>(
            R.range(0, static_cast<int>(Mutant.size()) - 1));
        Mutant[At] ^= static_cast<uint8_t>(R.range(1, 255));
        DecodeResult D = decodeX86(Mutant.data(), Mutant.size());
        if (!D.Ok) {
          EXPECT_FALSE(D.Error.empty());
        }
        ValidationReport V =
            validateKernelBytes(Mutant.data(), Mutant.size(), Kind, 3, P,
                                GoalSpec::sort(), Path.PairLanes);
        EXPECT_TRUE(V.Applicable);
        EXPECT_EQ(V.Ok, V.Findings.empty());
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Acceptance: shipped, reference, and goal kernels
//===----------------------------------------------------------------------===//

TEST(Validate, AcceptsEveryPrebuiltKernelOnBothPaths) {
  const char *Files[] = {"sort2_cmov.sks", "sort3_cmov.sks",
                         "sort3_minmax.sks", "sort4_cmov.sks"};
  for (const char *File : Files) {
    SavedKernel Kernel;
    ASSERT_TRUE(loadKernel(std::string(SKS_SOURCE_DIR) + "/kernels_prebuilt/" +
                               File,
                           Kernel))
        << File;
    ValidationReport Scalar =
        validateJitKernel(Kernel.Kind, Kernel.N, Kernel.P);
    EXPECT_TRUE(Scalar.Applicable) << File;
    EXPECT_TRUE(Scalar.Ok) << File << ": " << Scalar.summary();
    ValidationReport Pair =
        validateJitPairKernel(Kernel.Kind, Kernel.N, Kernel.P);
    EXPECT_TRUE(Pair.Applicable) << File;
    EXPECT_TRUE(Pair.Ok) << File << ": " << Pair.summary();
  }
}

TEST(Validate, AcceptsReferenceNetworksAcrossAllLengths) {
  for (MachineKind Kind : {MachineKind::Cmov, MachineKind::MinMax})
    for (unsigned N = 2; N <= 6; ++N) {
      Program P = Kind == MachineKind::Cmov ? sortingNetworkCmov(N)
                                            : sortingNetworkMinMax(N);
      ValidationReport Scalar = validateJitKernel(Kind, N, P);
      ASSERT_TRUE(Scalar.Applicable);
      EXPECT_TRUE(Scalar.Ok) << "scalar n=" << N << ": " << Scalar.summary();
      EXPECT_EQ(Scalar.BooleanVectors, 1u << N);
      ValidationReport Pair = validateJitPairKernel(Kind, N, P);
      ASSERT_TRUE(Pair.Applicable);
      EXPECT_TRUE(Pair.Ok) << "pair n=" << N << ": " << Pair.summary();
    }
}

TEST(Validate, AcceptsPaperSynthKernels) {
  EXPECT_TRUE(validateJitKernel(MachineKind::Cmov, 3, paperSynthCmov3()).Ok);
  EXPECT_TRUE(
      validateJitKernel(MachineKind::MinMax, 3, paperSynthMinMax3()).Ok);
  EXPECT_TRUE(
      validateJitPairKernel(MachineKind::Cmov, 3, paperSynthCmov3()).Ok);
  EXPECT_TRUE(
      validateJitPairKernel(MachineKind::MinMax, 3, paperSynthMinMax3()).Ok);
}

TEST(Validate, AcceptsSynthesizedGoalKernel) {
  // A freshly synthesized select-2 (median-of-3) kernel: shorter than a
  // full sort, and validated under its own goal so the threshold layer
  // pins only the goal's slots.
  const GoalSpec Goal = GoalSpec::selectK(2);
  Machine M(MachineKind::Cmov, 3, /*Scratch=*/1, Goal);
  SearchResult R = synthesize(M, SearchOptions());
  ASSERT_TRUE(R.Found);
  ValidationReport Scalar =
      validateJitKernel(MachineKind::Cmov, 3, R.Solutions.front(), Goal);
  ASSERT_TRUE(Scalar.Applicable);
  EXPECT_TRUE(Scalar.Ok) << Scalar.summary();
  ValidationReport Pair =
      validateJitPairKernel(MachineKind::Cmov, 3, R.Solutions.front(), Goal);
  ASSERT_TRUE(Pair.Applicable);
  EXPECT_TRUE(Pair.Ok) << Pair.summary();
}

TEST(Validate, HybridKernelsAreNotApplicable) {
  ValidationReport R = validateJitKernel(MachineKind::Hybrid, 3, Program());
  EXPECT_FALSE(R.Applicable);
  EXPECT_FALSE(validateJitPairKernel(MachineKind::Hybrid, 3, Program())
                   .Applicable);
}

TEST(Validate, RejectsCodeForADifferentProgram) {
  // The n=3 network's bytes against an empty (identity) IR: the streams
  // are well-formed and disciplined, so the rejection must come from the
  // semantic layer itself.
  EmittedCode Code =
      emitKernelBytes(MachineKind::Cmov, 3, sortingNetworkCmov(3));
  ASSERT_EQ(Code.Status, EmitStatus::Ok);
  ValidationReport R =
      validateKernelBytes(Code.Bytes.data(), Code.Bytes.size(),
                          MachineKind::Cmov, 3, Program(), GoalSpec::sort(),
                          false);
  ASSERT_TRUE(R.Applicable);
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(hasRule(R, ValidationRule::Semantics)) << R.summary();
}

TEST(Validate, ZeroSensitiveKernelsWidenTheOrderFamily) {
  // A kernel that never observes the zero-initialized scratch runs the
  // basic n^n family; one that compares against scratch zero widens to
  // (n+2)*(n+1)^n so every position of the constant 0 among the inputs
  // is enumerated (negative inputs sort differently against 0 than the
  // positive test values would show).
  ValidationReport Plain =
      validateJitKernel(MachineKind::Cmov, 2, sortingNetworkCmov(2));
  ASSERT_TRUE(Plain.Ok) << Plain.summary();
  EXPECT_EQ(Plain.OrderVectors, 4u); // 2^2

  Program CmpZero = {{Opcode::Cmp, 0, 2}}; // cmp r1, s1 — s1 is still 0
  ValidationReport Widened = validateJitKernel(MachineKind::Cmov, 2, CmpZero);
  ASSERT_TRUE(Widened.Applicable);
  EXPECT_TRUE(Widened.Ok) << Widened.summary();
  EXPECT_EQ(Widened.OrderVectors, 36u); // (2+2)*(2+1)^2

  Program MinZero = {{Opcode::Min, 0, 2}}; // r1 := min(r1, 0)
  ValidationReport MinMax = validateJitKernel(MachineKind::MinMax, 2, MinZero);
  ASSERT_TRUE(MinMax.Applicable);
  EXPECT_TRUE(MinMax.Ok) << MinMax.summary();
  EXPECT_EQ(MinMax.OrderVectors, 36u);
}

//===----------------------------------------------------------------------===//
// Discipline layers: hand-assembled streams
//===----------------------------------------------------------------------===//

ValidationReport validateScalarBytes(std::vector<uint8_t> Bytes,
                                     unsigned N = 2) {
  return validateKernelBytes(Bytes.data(), Bytes.size(), MachineKind::Cmov, N,
                             Program(), GoalSpec::sort(), false);
}

TEST(ValidateDiscipline, HostRegisterClobberIsRejected) {
  // mov ebx, eax: ebx is callee-saved and outside the model file.
  ValidationReport R = validateScalarBytes({0x8B, 0xD8, 0xC3});
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(hasRule(R, ValidationRule::RegisterDiscipline)) << R.summary();
}

TEST(ValidateDiscipline, CmovUnderUndefinedFlagsIsRejected) {
  // Both loads, cmovl, both stores — but no cmp or prologue xor ever
  // defines the flags the cmov reads.
  ValidationReport R = validateScalarBytes({0x8B, 0x47, 0x00,   // mov eax,[rdi]
                                           0x8B, 0x4F, 0x04,   // mov ecx,[rdi+4]
                                           0x0F, 0x4C, 0xC1,   // cmovl eax,ecx
                                           0x89, 0x47, 0x00,   // mov [rdi],eax
                                           0x89, 0x4F, 0x04,   // mov [rdi+4],ecx
                                           0xC3});
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(hasRule(R, ValidationRule::FlagDiscipline)) << R.summary();
}

TEST(ValidateDiscipline, MisalignedDisplacementIsRejected) {
  ValidationReport R = validateScalarBytes({0x8B, 0x47, 0x01, 0xC3});
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(hasRule(R, ValidationRule::MemoryDiscipline)) << R.summary();
}

TEST(ValidateDiscipline, SlotBeyondTheArrayIsRejected) {
  // [rdi + 8] is slot 2 of a 2-element scalar array.
  ValidationReport R = validateScalarBytes({0x8B, 0x47, 0x08, 0xC3});
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(hasRule(R, ValidationRule::MemoryDiscipline)) << R.summary();
}

TEST(ValidateDiscipline, UninitializedReadIsRejected) {
  // cmp eax, ecx before anything defines either register.
  ValidationReport R = validateScalarBytes({0x3B, 0xC1, 0xC3});
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(hasRule(R, ValidationRule::UninitRead)) << R.summary();
}

TEST(ValidateDiscipline, DoubleStoreIsRejected) {
  ValidationReport R = validateScalarBytes({0x8B, 0x47, 0x00,   // mov eax,[rdi]
                                           0x89, 0x47, 0x00,   // mov [rdi],eax
                                           0x89, 0x47, 0x00,   // again
                                           0xC3});
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(hasRule(R, ValidationRule::MemoryDiscipline)) << R.summary();
}

TEST(ValidateDiscipline, WrongLaneWidthIsRejected) {
  // A 32-bit load in a pair-lane (64-bit) stream.
  ValidationReport R =
      validateKernelBytes(std::vector<uint8_t>{0x8B, 0x47, 0x00, 0xC3}.data(),
                          4, MachineKind::Cmov, 2, Program(), GoalSpec::sort(),
                          true);
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(hasRule(R, ValidationRule::RegisterDiscipline)) << R.summary();
}

TEST(ValidateDiscipline, WrongPathOpcodeIsRejected) {
  // A GPR cmp inside a min/max kernel's stream.
  ValidationReport R =
      validateKernelBytes(std::vector<uint8_t>{0x3B, 0xC1, 0xC3}.data(), 3,
                          MachineKind::MinMax, 2, Program(), GoalSpec::sort(),
                          false);
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(hasRule(R, ValidationRule::RegisterDiscipline)) << R.summary();
}

TEST(ValidateDiscipline, BlendWithoutStagedMaskIsRejected) {
  // Pair min/max stream where blendvpd runs before any pcmpgtq staged a
  // mask into xmm0: the staging state machine must reject it.
  std::vector<uint8_t> Bytes = {
      0xF3, 0x0F, 0x7E, 0x4F, 0x00,       // movq xmm1, [rdi]
      0xF3, 0x0F, 0x7E, 0x57, 0x08,       // movq xmm2, [rdi+8]
      0x66, 0x0F, 0x38, 0x15, 0xCA,       // blendvpd xmm1, xmm2
      0x66, 0x0F, 0xD6, 0x4F, 0x00,       // movq [rdi], xmm1
      0x66, 0x0F, 0xD6, 0x57, 0x08,       // movq [rdi+8], xmm2
      0xC3};
  ValidationReport R =
      validateKernelBytes(Bytes.data(), Bytes.size(), MachineKind::MinMax, 2,
                          Program(), GoalSpec::sort(), true);
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(hasRule(R, ValidationRule::FlagDiscipline)) << R.summary();
}

//===----------------------------------------------------------------------===//
// Mutation pinning: targeted semantic mutants must all be rejected
//===----------------------------------------------------------------------===//

/// Builds byte-mutants of \p Code that are semantically guaranteed to
/// change the computed function or break a discipline layer — unlike
/// random bit flips, none of these can be an equivalent reg-redirection.
std::vector<std::vector<uint8_t>> semanticMutants(const EmittedCode &Code,
                                                  bool PairLanes) {
  std::vector<std::vector<uint8_t>> Mutants;
  DecodeResult D = decodeX86(Code.Bytes.data(), Code.Bytes.size());
  if (!D.Ok)
    return Mutants;
  auto Mutate = [&](size_t At, uint8_t NewByte) {
    Mutants.push_back(Code.Bytes);
    Mutants.back()[At] = NewByte;
  };
  const unsigned Lane = PairLanes ? 8 : 4;
  for (const X86Insn &I : D.Insns) {
    const size_t OpByte = I.Offset + I.Length - 2;   // reg-reg: before ModRM
    const size_t DispByte = I.Offset + I.Length - 1; // memory: the disp8
    switch (I.Op) {
    case X86Op::CMovL: // flip the condition: 0F 4C <-> 0F 4F
      Mutate(OpByte, 0x4F);
      break;
    case X86Op::CMovG:
      Mutate(OpByte, 0x4C);
      break;
    case X86Op::CmpRR: // cmp -> mov clobbers the compared register
      Mutate(OpByte, 0x8B);
      break;
    case X86Op::PMinSD: // min <-> max
      Mutate(OpByte, 0x3D);
      break;
    case X86Op::PMaxSD:
      Mutate(OpByte, 0x39);
      break;
    case X86Op::PCmpGtQ: // mask producer -> data op starves blendvpd
      Mutate(OpByte, 0x39);
      break;
    case X86Op::GprStore: // store -> load leaves the slot unwritten
      Mutate(I.Offset + I.Length - 3, 0x8B);
      Mutate(DispByte, static_cast<uint8_t>(I.Disp + 1)); // misalign
      break;
    case X86Op::MovdStore:
    case X86Op::MovqStore:
    case X86Op::MovdLoad:
    case X86Op::MovqLoad:
    case X86Op::GprLoad:
      Mutate(DispByte, static_cast<uint8_t>(I.Disp + 1)); // misalign
      Mutate(DispByte, static_cast<uint8_t>(I.Disp + Lane)); // shift slot
      break;
    case X86Op::XorRR: // break the zero idiom (reg != rm)
      Mutate(DispByte, static_cast<uint8_t>(Code.Bytes[DispByte] ^ 1));
      break;
    default:
      break;
    }
    // Pair GPR forms: dropping REX.W flips the lane width.
    if (I.W && Code.Bytes[I.Offset] >= 0x48 && Code.Bytes[I.Offset] <= 0x4F)
      Mutate(I.Offset, static_cast<uint8_t>(Code.Bytes[I.Offset] & ~0x08));
  }
  return Mutants;
}

TEST(ValidateMutation, RejectsEverySemanticMutant) {
  size_t Total = 0, Rejected = 0;
  for (MachineKind Kind : {MachineKind::Cmov, MachineKind::MinMax})
    for (unsigned N : {3u, 4u}) {
      Program P = Kind == MachineKind::Cmov ? sortingNetworkCmov(N)
                                            : sortingNetworkMinMax(N);
      for (const EmissionPath &Path : emitAllPaths(Kind, N, P)) {
        ASSERT_EQ(Path.Code.Status, EmitStatus::Ok);
        // The unmutated bytes validate, so each rejection below is the
        // mutation's.
        ValidationReport Original = validatePath(Path, Kind, N, P);
        ASSERT_TRUE(Original.Ok) << Path.Name << ": " << Original.summary();
        for (const std::vector<uint8_t> &Mutant :
             semanticMutants(Path.Code, Path.PairLanes)) {
          ++Total;
          ValidationReport R =
              validateKernelBytes(Mutant.data(), Mutant.size(), Kind, N, P,
                                  GoalSpec::sort(), Path.PairLanes);
          if (R.Applicable && !R.Ok)
            ++Rejected;
          else
            ADD_FAILURE() << Path.Name << " " << (Kind == MachineKind::Cmov
                                                      ? "cmov"
                                                      : "minmax")
                          << " n=" << N << " mutant accepted";
        }
      }
    }
  EXPECT_GE(Total, 100u) << "mutation corpus too small to pin anything";
  EXPECT_EQ(Rejected, Total);
}

//===----------------------------------------------------------------------===//
// Concurrency smoke (the tsan_validate ctest entry)
//===----------------------------------------------------------------------===//

TEST(ValidateThreads, ConcurrentValidationSmoke) {
  // The validator keeps all state on the stack, so concurrent calls over
  // shared Program inputs must be race-free; tsan checks the claim.
  const Program Cmov = sortingNetworkCmov(3);
  const Program MinMax = sortingNetworkMinMax(3);
  std::vector<std::thread> Workers;
  std::atomic<int> Failures{0};
  for (int T = 0; T != 4; ++T)
    Workers.emplace_back([&] {
      for (int I = 0; I != 8; ++I) {
        if (!validateJitKernel(MachineKind::Cmov, 3, Cmov).Ok)
          ++Failures;
        if (!validateJitPairKernel(MachineKind::MinMax, 3, MinMax).Ok)
          ++Failures;
      }
    });
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(Failures.load(), 0);
}

} // namespace
