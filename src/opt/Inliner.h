//===- opt/Inliner.h - Bytecode inlining transformation ---------*- C++ -*-===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The inlining transformation: splices callee bodies into a caller
/// according to an InlinePlan.
///
///  - Direct inlining replaces the call with the callee body: arguments
///    are spilled from the operand stack into fresh locals, the body is
///    copied with locals remapped, and its returns become jumps past the
///    splice (the return value, if any, stays on the stack).
///  - Guarded inlining (for virtual sites) emits exact-class tests
///    against each predicted target's receiver classes, the inlined
///    bodies on the hit paths, and the original virtual call on the
///    fallback path. The fallback call keeps its original site id, so
///    profilers keep attributing residual calls correctly.
///
/// Inlining is applied recursively (nested sites inside spliced bodies
/// are expanded too) up to a depth limit, a result-size budget, and
/// with recursion cycles cut. Output always passes the verifier; the
/// test suite additionally checks semantic equivalence by differential
/// execution.
///
//===----------------------------------------------------------------------===//

#ifndef CBSVM_OPT_INLINER_H
#define CBSVM_OPT_INLINER_H

#include "bytecode/Program.h"
#include "opt/InlinePlan.h"
#include "vm/CompiledMethod.h"

namespace cbs::opt {

struct InlinerOptions {
  /// Maximum nesting of spliced bodies.
  uint32_t MaxDepth = 4;
  /// Stop expanding once the rewritten method reaches this many
  /// instructions (the paper's "bounded by a maximum allowable size").
  uint32_t MaxResultInstructions = 1500;
};

struct InlineResult {
  std::vector<bc::Instruction> Code;
  uint32_t NumLocals = 0;
  /// Callee bodies spliced in (all nesting levels).
  uint32_t InlinedBodies = 0;
  /// Expansions skipped because of the size budget.
  uint32_t BudgetSkips = 0;
  /// One record per guarded virtual site actually expanded (at any
  /// nesting level): the site and the highest-priority predicted
  /// callee. These become the compiled version's speculation guards.
  std::vector<vm::SpeculationGuard> Speculations;
  /// RootMap[PC] = where the root method's original instruction at
  /// \p PC landed in Code. Every original instruction begins exactly
  /// one region of the rewritten code (calls expand in place), so the
  /// map is total. The compiler projects the root's loop headers
  /// through it to build the version's OSR-point table.
  std::vector<uint32_t> RootMap;
};

/// Rewrites \p Root's original bytecode under \p Plan. With an empty
/// plan this is an identity copy.
InlineResult inlineMethod(const bc::Program &P, bc::MethodId Root,
                          const InlinePlan &Plan,
                          const InlinerOptions &Options = {});

} // namespace cbs::opt

#endif // CBSVM_OPT_INLINER_H
