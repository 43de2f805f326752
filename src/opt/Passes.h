//===- opt/Passes.h - Bytecode optimization passes --------------*- C++ -*-===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The optimizer passes that give inlining its *indirect* benefit (the
/// paper's §1: small methods restrict the scope of optimization; once
/// bodies are spliced into the caller, these passes can fold across the
/// former call boundary). Each pass is semantics-preserving — the test
/// suite checks this by differential execution against unoptimized
/// code — and is expressed over the flat instruction vector:
///
///  - foldConstants: IConst/IConst/binop → IConst; constant conditions
///    → Goto/fall-through. Trapping division by a constant zero is
///    never folded.
///  - propagateLocalConstants: per-block tracking of locals holding
///    known constants (inlined arguments, typically) rewrites ILoad
///    into IConst.
///  - simplifyBranches: collapses goto→goto chains and gotos to the
///    next instruction.
///  - removeUnreachable: nops out instructions no path reaches.
///  - fuseWork: merges adjacent Work instructions (code-size, not
///    cycle, savings).
///  - removeNops: compacts nops away, remapping branch targets (and
///    any caller-supplied tracked-PC side table, e.g. OSR points).
///
/// All passes return true if they changed the code. optimizeCode runs
/// them as the pipeline for a compilation level: level 0 performs no
/// optimization (matching the paper's baseline configuration, where
/// only trivial inlining runs); levels 1 and 2 run up to 2 and 4
/// rounds of every pass, stopping at a fixed point.
///
//===----------------------------------------------------------------------===//

#ifndef CBSVM_OPT_PASSES_H
#define CBSVM_OPT_PASSES_H

#include "bytecode/Program.h"

#include <vector>

namespace cbs::opt {

struct OptimizerStats {
  unsigned RoundsRun = 0;
  bool AnyChange = false;
};

/// Optimizes \p Code (a body of a method of \p P) in place at \p Level.
/// \p TrackedPCs, when given, is a side table of code-space PCs (OSR
/// points) kept in sync as passes move instructions.
OptimizerStats optimizeCode(const bc::Program &P,
                            std::vector<bc::Instruction> &Code, int Level,
                            std::vector<uint32_t> *TrackedPCs = nullptr);

bool foldConstants(std::vector<bc::Instruction> &Code);
bool propagateLocalConstants(const bc::Program &P,
                             std::vector<bc::Instruction> &Code);
bool simplifyBranches(std::vector<bc::Instruction> &Code);
bool removeUnreachable(std::vector<bc::Instruction> &Code);
bool fuseWork(std::vector<bc::Instruction> &Code);

/// Compacts nops away. \p TrackedPCs, when given, is a side table of
/// code-space PCs remapped in place under the same
/// first-kept-at-or-after rule as branch targets (the compiler tracks
/// OSR-point locations through the pipeline this way). removeNops is
/// the only pass that moves instructions; every other pass rewrites in
/// place, so a side table stays valid across them for free.
bool removeNops(std::vector<bc::Instruction> &Code,
                std::vector<uint32_t> *TrackedPCs = nullptr);

/// Removes stores to locals that are never read anywhere in the method,
/// when the stored value comes from an adjacent side-effect-free
/// producer. This is what cleans up spilled-then-constant-propagated
/// inlined arguments.
bool removeDeadStores(std::vector<bc::Instruction> &Code);

/// Marks every instruction that is the target of some branch.
std::vector<bool> computeBranchTargets(const std::vector<bc::Instruction> &Code);

} // namespace cbs::opt

#endif // CBSVM_OPT_PASSES_H
