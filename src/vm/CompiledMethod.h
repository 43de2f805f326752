//===- vm/CompiledMethod.h - Compiled method bodies -------------*- C++ -*-===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One compiled version of a method: (possibly inlined and optimized)
/// code, its optimization level, the execution-speed scale the
/// interpreter applies, and the per-PC cost tables baked from both.
/// CompiledMethod::build is the one way a body is made (the baseline
/// path, CodeCache::compileBaseline, and the optimizing pipeline,
/// opt::compileMethod, both end in it), and no field of a body changes
/// once build() returns: what changes after install (a version's pinned
/// frames and whether it was invalidated) lives in the code cache's
/// per-install record, vm::InstalledVersion. The original bytecode in
/// the Program is never mutated; the code cache maps each method to its
/// active version, and stack frames pin the version they started in.
/// With on-stack replacement enabled (VMConfig::EnableOSR) a pinned
/// frame transfers to the active version at the next taken backedge
/// yieldpoint whose target is a recorded OSR point; with it disabled
/// the frame runs its pinned version to completion, matching the
/// paper's VMs for already-active frames.
///
//===----------------------------------------------------------------------===//

#ifndef CBSVM_VM_COMPILEDMETHOD_H
#define CBSVM_VM_COMPILEDMETHOD_H

#include "bytecode/Instruction.h"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace cbs::vm {

/// One speculative assumption baked into a compiled version: at \p Site
/// (a virtual call the inliner expanded with guards), the profile said
/// \p AssumedCallee dominated the receiver distribution. If the live
/// profile stops backing the assumption, the version is a deopt
/// candidate (see aos::DeoptController).
struct SpeculationGuard {
  bc::SiteId Site = bc::InvalidSiteId;
  bc::MethodId AssumedCallee = bc::InvalidMethodId;
};

/// One loop-entry location where a frame may transfer between versions
/// of the same method. OSR points are the root method's loop headers
/// (targets of backward branches in the *original* bytecode); every
/// version of a method records where each surviving header landed in
/// its own code, so two versions agree on a transfer location exactly
/// when they share the header's original-bytecode PC. At a loop header
/// the operand stack is empty and the root method's locals occupy the
/// same slots in every version (the inliner appends callee locals past
/// them), which is what makes the transfer a pure PC/locals remap.
struct OsrPoint {
  /// Loop-header PC in the method's original bytecode.
  uint32_t BytecodePC = 0;
  /// Where that header landed in this version's (inlined, optimized)
  /// code.
  uint32_t CodePC = 0;
};

/// What executing one instruction charges: virtual cycles, and its
/// count toward VMStats::Instructions (1, or `work`'s operand, which is
/// added sign-extended, as the operand itself would be).
struct PcCost {
  uint64_t Cycles = 0;
  int32_t Instructions = 0;
};

struct CompiledMethod {
  /// What a compile path decides about a body; build() derives the
  /// rest from the level and the cost table (vm/CostModel.h).
  struct Parts {
    bc::MethodId Id = bc::InvalidMethodId;
    int Level = 0;
    uint32_t NumLocals = 0;
    std::vector<bc::Instruction> Code{};
    /// The code size the compile is charged on, in bytes: the method's
    /// bytecode for a baseline compile, the post-inlining,
    /// pre-optimization body for an optimizing one.
    uint64_t ChargedBytes = 0;
    std::vector<OsrPoint> OsrPoints{};
    std::vector<SpeculationGuard> Guards{};
    uint32_t InlinedBodies = 0;
    uint64_t PlanGeneration = 0;
    uint64_t ProfileEpoch = 0;
  };

  /// Makes the body of \p In: sets the level's ScaleQ8 and compile
  /// cost from cost::LevelScale and cost::CompileCostPerByte and bakes
  /// both per-PC cost tables.
  static CompiledMethod build(Parts In);

  bc::MethodId Id = bc::InvalidMethodId;
  /// Optimization level 0..2.
  uint8_t Level = 0;
  /// Fixed-point (Q8) execution-speed multiplier; 256 = 1.0. The
  /// interpreter charges (baseCost * ScaleQ8) >> 8 per instruction.
  uint16_t ScaleQ8 = 256;
  uint32_t NumLocals = 0;
  std::vector<bc::Instruction> Code;
  /// Modelled cycles spent compiling this version (tracked separately
  /// from execution cycles; see VMStats::CompileCycles).
  uint64_t CompileCostCycles = 0;
  /// Number of callee bodies the inliner spliced in (stats only).
  uint32_t InlinedBodies = 0;
  /// The speculative assumptions this version depends on (one per
  /// guarded-inlined virtual site; empty for unspeculated code).
  std::vector<SpeculationGuard> Guards;
  /// Generation of the InlinePlan this version was compiled against and
  /// the DCG snapshot epoch that plan was built from (0 for plans built
  /// outside the adaptive system).
  uint64_t PlanGeneration = 0;
  uint64_t ProfileEpoch = 0;
  /// Per-PC charges, baked by build(): CostTable at this version's
  /// ScaleQ8, BaselineCostTable unscaled (what a deopted frame pays;
  /// empty when ScaleQ8 is 1.0, since CostTable is then the same). An
  /// instruction charges its cycles (bc::instructionCycles, scaled or
  /// not) and counts as one instruction, except `work`, which counts
  /// its operand. A frame points at the table that applies to it
  /// (Frame::Costs).
  std::vector<PcCost> CostTable;
  std::vector<PcCost> BaselineCostTable;
  /// Loop-entry transfer locations, sorted by BytecodePC. Always
  /// emitted (the table is inert data when OSR is off); identity
  /// entries for baseline compiles.
  std::vector<OsrPoint> OsrPoints;

  uint64_t scaledCost(uint32_t BaseCost) const {
    return (static_cast<uint64_t>(BaseCost) * ScaleQ8) >> 8;
  }

  /// The unscaled per-PC charges a deopted frame pays.
  const PcCost *baselineCosts() const {
    return BaselineCostTable.empty() ? CostTable.data()
                                     : BaselineCostTable.data();
  }

  /// The OSR point whose code-space PC is \p CodePC, or nullptr.
  const OsrPoint *osrPointAtCode(uint32_t CodePC) const {
    for (const OsrPoint &P : OsrPoints)
      if (P.CodePC == CodePC)
        return &P;
    return nullptr;
  }

  /// The OSR point for original-bytecode loop header \p BytecodePC, or
  /// nullptr if this version did not keep that header.
  const OsrPoint *osrPointAtBytecode(uint32_t BytecodePC) const {
    for (const OsrPoint &P : OsrPoints)
      if (P.BytecodePC == BytecodePC)
        return &P;
    return nullptr;
  }
};

/// Loop-header PCs of \p Code: targets of backward branches (the
/// interpreter treats a taken branch with Target <= PC as a backedge).
/// Sorted, unique. Both the baseline identity compile and the
/// optimizing pipeline derive their OSR tables from this over the
/// method's *original* bytecode, so all versions agree on the set of
/// candidate headers.
inline std::vector<uint32_t>
loopHeaderPCs(const std::vector<bc::Instruction> &Code) {
  std::vector<uint32_t> Headers;
  for (uint32_t PC = 0; PC < Code.size(); ++PC) {
    const bc::Instruction &I = Code[PC];
    if (!bc::isBranch(I.Op))
      continue;
    uint32_t Target = static_cast<uint32_t>(I.A);
    if (Target > PC)
      continue;
    bool Seen = false;
    for (uint32_t H : Headers)
      Seen |= (H == Target);
    if (!Seen)
      Headers.push_back(Target);
  }
  std::sort(Headers.begin(), Headers.end());
  return Headers;
}

} // namespace cbs::vm

#endif // CBSVM_VM_COMPILEDMETHOD_H
