//===- opt/Compiler.cpp - The compile pipeline --------------------------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//

#include "opt/Compiler.h"

#include "bytecode/Program.h"
#include "opt/Optimizer.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace cbs;
using namespace cbs::opt;

vm::CompiledMethod opt::compileMethod(const bc::Program &P, bc::MethodId Id,
                                      int Level, const InlinePlan &Plan,
                                      const vm::CostModel &Costs,
                                      const CompileOptions &Options) {
  assert(Level >= 0 && Level <= 2 && "optimization level out of range");
  InlineResult Inlined = inlineMethod(P, Id, Plan);

  // Compile cost is charged on the *post-inlining, pre-optimization*
  // size: this is the unit the downstream optimizations must process —
  // §1's "large increases in ... compilation time (as downstream
  // optimizations process the large compilation units created by
  // inlining)". Sizing on the optimized output would make over-inlining
  // look free whenever the optimizer can fold the spliced bodies.
  uint64_t SizeBytes = 0;
  for (const bc::Instruction &I : Inlined.Code)
    SizeBytes += bc::opcodeSizeBytes(I.Op);

  // OSR points: the root method's loop headers (original-bytecode PCs),
  // projected through the inliner's root map into this version's code,
  // then tracked through the optimizer as passes move instructions.
  // Always emitted — the table is inert data unless VMConfig::EnableOSR
  // turns transfers on.
  std::vector<uint32_t> Headers = vm::loopHeaderPCs(P.method(Id).Code);
  std::vector<uint32_t> HeaderCodePCs;
  HeaderCodePCs.reserve(Headers.size());
  for (uint32_t H : Headers)
    HeaderCodePCs.push_back(Inlined.RootMap[H]);

  if (Options.RunOptimizer)
    optimizeCode(P, Inlined.Code, Level, &HeaderCodePCs);

  vm::CompiledMethod CM;
  // A header whose instruction dissolved maps (first-kept-at-or-after)
  // to whatever now sits there — which is only a loop entry if some
  // backward branch in the *final* code still targets it. Keep an entry
  // only when its code PC is a surviving loop header claimed by exactly
  // one original header; an ambiguous or dead entry would let a
  // transfer remap through the wrong loop.
  std::vector<uint32_t> FinalHeaders = vm::loopHeaderPCs(Inlined.Code);
  CM.OsrPoints.reserve(Headers.size());
  for (size_t I = 0; I != Headers.size(); ++I) {
    uint32_t CodePC = HeaderCodePCs[I];
    bool Live = std::find(FinalHeaders.begin(), FinalHeaders.end(), CodePC) !=
                FinalHeaders.end();
    bool Unique = std::count(HeaderCodePCs.begin(), HeaderCodePCs.end(),
                             CodePC) == 1;
    if (Live && Unique)
      CM.OsrPoints.push_back({Headers[I], CodePC});
  }
  CM.Id = Id;
  CM.Level = static_cast<uint8_t>(Level);
  CM.ScaleQ8 =
      static_cast<uint16_t>(std::lround(Costs.LevelScale[Level] * 256.0));
  CM.NumLocals = Inlined.NumLocals;
  CM.Code = std::move(Inlined.Code);
  CM.InlinedBodies = Inlined.InlinedBodies;
  CM.Guards = std::move(Inlined.Speculations);
  CM.PlanGeneration = Plan.Generation;
  CM.ProfileEpoch = Plan.ProfileEpoch;
  CM.CompileCostCycles = static_cast<uint64_t>(
      std::llround(Costs.CompileCostPerByte[Level] *
                   static_cast<double>(SizeBytes)));
  return CM;
}

std::function<vm::CompiledMethod(const bc::Program &, bc::MethodId, int)>
opt::makeCompileHook(std::shared_ptr<const InlinePlan> Plan,
                     vm::CostModel Costs, CompileOptions Options) {
  return [Plan = std::move(Plan), Costs,
          Options](const bc::Program &P, bc::MethodId Id,
                   int Level) -> vm::CompiledMethod {
    return compileMethod(P, Id, Level, *Plan, Costs, Options);
  };
}
