//===- tables/DistanceTable.cpp - Exact per-assignment distances ----------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Backward BFS from all goal-accepting assignments (all sorted assignments
// for the sort goal). For each instruction we generate the *predecessors*
// of a frontier state S:
//
//   mov d s    : requires S[d] == S[s]; predecessors set register d to any
//                other value (the mov overwrote it).
//   cmp a b    : requires S's flags to match cmp(S[a], S[b]); predecessors
//                carry any other flag state.
//   cmovl d s  : with lt set, same as mov (the move fired); with lt clear
//                the instruction is a no-op, contributing only self-loops.
//   cmovg d s  : symmetric with gt.
//   pmin d s   : requires S[d] <= S[s]; if S[d] == S[s] the destination may
//                have held any larger value; if S[d] < S[s] only S itself
//                (self-loop). pmax symmetric.
//
// Self-loops never improve a BFS distance and are skipped. Every forward
// edge that changes a row is generated, which is why a child of an
// unreachable row is unreachable too.
//
// The successor rows are filled after the BFS, instruction-major: blocks of
// reachable rows go through the data-parallel applyBatch once per
// instruction while the block's successor rows stay cache-resident.
//
//===----------------------------------------------------------------------===//

#include "tables/DistanceTable.h"

#include "machine/BatchApply.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#if defined(__x86_64__)
#include <emmintrin.h>
#define SKS_TABLE_SIMD 1
#else
#define SKS_TABLE_SIMD 0
#endif

using namespace sks;

DistanceTable::DistanceTable(const Machine &M)
    : M(M), HasFlags(M.kind() != MachineKind::MinMax), SlotLo(4096),
      SlotHi(4096) {
  const unsigned R = M.numRegs();
  const uint32_t NumValues = M.numValues();
  const uint32_t FlagStates = HasFlags ? 3 : 1;
  // Mixed-radix slot weights: register i weighs FlagStates * (n+1)^i. Each
  // 12-bit half of the register payload (four 3-bit fields) maps through
  // its own table; fields above n never occur in a row.
  for (uint32_t Bits = 0; Bits != 4096; ++Bits) {
    uint32_t Digits = 0, Weight = 1;
    for (unsigned Reg = 0; Reg != 4; ++Reg) {
      Digits += ((Bits >> (3 * Reg)) & 7u) * Weight;
      Weight *= NumValues;
    }
    SlotLo[Bits] = FlagStates * Digits;
    SlotHi[Bits] = FlagStates * Weight * Digits;
  }
  size_t Slots = FlagStates;
  for (unsigned Reg = 0; Reg != R; ++Reg)
    Slots *= NumValues;
  Dist.assign(Slots, Unreachable);

  // Seed the BFS with every accepting assignment: goal-pinned data
  // registers read their required values, the remaining enumerated
  // registers (unpinned data positions, then scratch) and the flags are
  // arbitrary. For the sort goal every data register is pinned, so this
  // reproduces the original sorted-row seed set in the same order.
  // (Hybrid machines deliberately keep the pre-existing behavior of not
  // enumerating the vector-half registers here.)
  std::vector<uint32_t> Frontier;
  std::vector<uint32_t> Live; // Every reachable row, in BFS order.
  const unsigned NumScratch = M.numScratch();
  const unsigned N = M.numData();
  uint32_t FlagChoices[3] = {0, FlagLT, FlagGT};
  std::vector<unsigned> FreeRegs;
  uint32_t Pinned = M.goal().pinnedPositions(N);
  for (unsigned J = 0; J != N; ++J)
    if (!(Pinned & (1u << J)))
      FreeRegs.push_back(J);
  for (unsigned I = 0; I != NumScratch; ++I)
    FreeRegs.push_back(N + I);
  size_t FreeCombos = 1;
  for (size_t I = 0; I != FreeRegs.size(); ++I)
    FreeCombos *= NumValues;
  for (size_t Combo = 0; Combo != FreeCombos; ++Combo) {
    uint32_t Row = M.goalPattern();
    size_t Rest = Combo;
    for (unsigned Reg : FreeRegs) {
      Row = setReg(Row, Reg, static_cast<uint32_t>(Rest % NumValues));
      Rest /= NumValues;
    }
    for (unsigned F = 0; F != (HasFlags ? 3u : 1u); ++F) {
      uint32_t Seeded = Row | FlagChoices[F];
      uint8_t &Slot = Dist[indexOf(Seeded)];
      if (Slot == 0)
        continue;
      Slot = 0;
      Frontier.push_back(Seeded);
    }
  }
  Live = Frontier;

  auto Visit = [&](uint32_t Pred, uint8_t D, std::vector<uint32_t> &Next) {
    uint8_t &Slot = Dist[indexOf(Pred)];
    if (Slot != Unreachable)
      return;
    Slot = D;
    Live.push_back(Pred);
    Next.push_back(Pred);
  };

  std::vector<uint32_t> Next;
  for (uint8_t D = 1; !Frontier.empty(); ++D) {
    Next.clear();
    for (uint32_t S : Frontier) {
      uint32_t Flags = S & FlagMask;
      // mov-like predecessors (mov always; cmovl/cmovg only under their
      // flag; pmin/pmax with the range conditions).
      for (unsigned DstReg = 0; DstReg != R; ++DstReg) {
        uint32_t DstVal = getReg(S, DstReg);
        for (unsigned SrcReg = 0; SrcReg != R; ++SrcReg) {
          if (DstReg == SrcReg)
            continue;
          uint32_t SrcVal = getReg(S, SrcReg);
          if (M.kind() != MachineKind::MinMax) {
            if (DstVal != SrcVal)
              continue;
            // mov fired unconditionally; cmovl/cmovg fired under the
            // current flags. All three share the same predecessor set, so
            // one pass suffices.
            for (uint32_t V = 0; V != NumValues; ++V) {
              if (V == DstVal)
                continue;
              Visit(setReg(S, DstReg, V), D, Next);
            }
          } else {
            // pmin: S[d] == S[s] means the old value was >= S[s].
            if (DstVal == SrcVal) {
              for (uint32_t V = 0; V != NumValues; ++V) {
                if (V == DstVal)
                  continue;
                // Either pmin erased a larger value or pmax erased a
                // smaller one; both directions yield predecessors.
                Visit(setReg(S, DstReg, V), D, Next);
              }
              // movdqa predecessors coincide with the union above.
            }
          }
        }
      }
      if (HasFlags) {
        // cmp predecessors: if S's flags are consistent with comparing some
        // register pair of S, any prior flag state is a predecessor.
        bool FlagsProducible = false;
        for (unsigned A = 0; A != R && !FlagsProducible; ++A)
          for (unsigned B = A + 1; B != R; ++B) {
            uint32_t VA = getReg(S, A), VB = getReg(S, B);
            uint32_t Produced =
                VA < VB ? FlagLT : (VA > VB ? FlagGT : 0u);
            if (Produced == Flags) {
              FlagsProducible = true;
              break;
            }
          }
        if (FlagsProducible) {
          uint32_t Bare = S & ~FlagMask;
          for (uint32_t F : FlagChoices) {
            if (F == Flags)
              continue;
            Visit(Bare | F, D, Next);
          }
        }
      }
    }
    Frontier.swap(Next);
  }
  Reachable = Live.size();

  // Successor rows: row 0 is the shared dead row, reachable row J is row
  // J + 1. Padding bytes keep the Unreachable fill.
  const std::vector<Instr> &Alphabet = M.instructions();
  Stride = (Alphabet.size() + 15) / 16 * 16;
  assert(Stride <= kMaxStride && "alphabet outgrew the successor row bound");
  SuccRow.assign(Slots, 0);
  Succ.assign((Live.size() + 1) * Stride, Unreachable);
  for (size_t J = 0; J != Live.size(); ++J)
    SuccRow[indexOf(Live[J])] = static_cast<uint32_t>(J + 1);
  constexpr size_t Block = 256;
  uint32_t Applied[Block];
  for (size_t Base = 0; Base < Live.size(); Base += Block) {
    const size_t Count = std::min(Block, Live.size() - Base);
    uint8_t *Rows = Succ.data() + (Base + 1) * Stride;
    for (size_t K = 0; K != Alphabet.size(); ++K) {
      applyBatch(M, Alphabet[K], Live.data() + Base, Applied, Count);
      for (size_t J = 0; J != Count; ++J)
        Rows[J * Stride + K] = Dist[indexOf(Applied[J])];
    }
  }
}

void DistanceTable::foldSuccessors(const uint32_t *Rows, size_t Len,
                                   uint8_t *Max, uint8_t *Optimal) const {
  std::memset(Max, 0, Stride);
  if (Optimal)
    std::memset(Optimal, 0, Stride);
  // Rows go in blocks: gather their successor rows (and, for the action
  // filter, the rows with 0 < dist < Unreachable and their dist - 1), then
  // fold each 16-instruction chunk across the block.
  constexpr size_t Block = 32;
  const uint8_t *Succs[Block];
  const uint8_t *Progress[Block];
  uint8_t Target[Block];
  for (size_t Base = 0; Base < Len; Base += Block) {
    const size_t Count = std::min(Block, Len - Base);
    size_t Open = 0;
    for (size_t I = 0; I != Count; ++I) {
      const size_t Slot = indexOf(Rows[Base + I]);
      Succs[I] = Succ.data() + size_t(SuccRow[Slot]) * Stride;
      const uint8_t D = Dist[Slot];
      if (Optimal && D != 0 && D != Unreachable) {
        Progress[Open] = Succs[I];
        Target[Open++] = static_cast<uint8_t>(D - 1);
      }
    }
    for (size_t C = 0; C < Stride; C += 16) {
#if SKS_TABLE_SIMD
      auto Load = [C](const uint8_t *Bytes) {
        return _mm_loadu_si128(reinterpret_cast<const __m128i *>(Bytes + C));
      };
      __m128i Acc = Load(Max);
      for (size_t I = 0; I != Count; ++I)
        Acc = _mm_max_epu8(Acc, Load(Succs[I]));
      _mm_storeu_si128(reinterpret_cast<__m128i *>(Max + C), Acc);
      if (Open == 0)
        continue;
      __m128i Hit = Load(Optimal);
      for (size_t I = 0; I != Open; ++I)
        Hit = _mm_or_si128(
            Hit, _mm_cmpeq_epi8(Load(Progress[I]),
                                _mm_set1_epi8(static_cast<char>(Target[I]))));
      _mm_storeu_si128(reinterpret_cast<__m128i *>(Optimal + C), Hit);
#else
      for (size_t I = 0; I != Count; ++I)
        for (size_t K = C; K != C + 16; ++K)
          Max[K] = std::max(Max[K], Succs[I][K]);
      for (size_t I = 0; I != Open; ++I)
        for (size_t K = C; K != C + 16; ++K)
          Optimal[K] |= Progress[I][K] == Target[I];
#endif
    }
  }
}
