//===- opt/Compiler.h - The compile pipeline --------------------*- C++ -*-===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns a method into an installed-ready CompiledMethod: apply the
/// inline plan, run the optimizer for the level, track the OSR points
/// through both, and hand the result to CompiledMethod::build with the
/// *post-inlining* code size to charge the compile on (which is how
/// inlining inflates compile time, the effect J9's dynamic heuristics
/// reduce by 9% in §6.3).
///
//===----------------------------------------------------------------------===//

#ifndef CBSVM_OPT_COMPILER_H
#define CBSVM_OPT_COMPILER_H

#include "opt/InlinePlan.h"
#include "opt/Inliner.h"
#include "vm/CompiledMethod.h"

#include <functional>
#include <memory>

namespace cbs::opt {

/// Compiles \p Id at \p Level under \p Plan.
vm::CompiledMethod compileMethod(const bc::Program &P, bc::MethodId Id,
                                 int Level, const InlinePlan &Plan);

/// Builds a VMConfig::CompileHook that compiles every method through
/// this pipeline with a fixed (shared) plan — the "JIT only" setup of
/// the accuracy experiments, where \p Plan is typically the
/// TrivialOracle's.
std::function<vm::CompiledMethod(const bc::Program &, bc::MethodId, int)>
makeCompileHook(std::shared_ptr<const InlinePlan> Plan);

} // namespace cbs::opt

#endif // CBSVM_OPT_COMPILER_H
