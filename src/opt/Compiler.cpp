//===- opt/Compiler.cpp - The compile pipeline --------------------------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//

#include "opt/Compiler.h"

#include "bytecode/Program.h"
#include "opt/Passes.h"

#include <algorithm>

using namespace cbs;
using namespace cbs::opt;

vm::CompiledMethod opt::compileMethod(const bc::Program &P, bc::MethodId Id,
                                      int Level, const InlinePlan &Plan) {
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

  optimizeCode(P, Inlined.Code, Level, &HeaderCodePCs);

  // A header whose instruction dissolved maps (first-kept-at-or-after)
  // to whatever now sits there — which is only a loop entry if some
  // backward branch in the *final* code still targets it. Keep an entry
  // only when its code PC is a surviving loop header claimed by exactly
  // one original header; an ambiguous or dead entry would let a
  // transfer remap through the wrong loop.
  std::vector<uint32_t> FinalHeaders = vm::loopHeaderPCs(Inlined.Code);
  std::vector<vm::OsrPoint> Osr;
  Osr.reserve(Headers.size());
  for (size_t I = 0; I != Headers.size(); ++I) {
    uint32_t CodePC = HeaderCodePCs[I];
    bool Live = std::find(FinalHeaders.begin(), FinalHeaders.end(), CodePC) !=
                FinalHeaders.end();
    bool Unique = std::count(HeaderCodePCs.begin(), HeaderCodePCs.end(),
                             CodePC) == 1;
    if (Live && Unique)
      Osr.push_back({Headers[I], CodePC});
  }
  return vm::CompiledMethod::build({.Id = Id,
                                    .Level = Level,
                                    .NumLocals = Inlined.NumLocals,
                                    .Code = std::move(Inlined.Code),
                                    .ChargedBytes = SizeBytes,
                                    .OsrPoints = std::move(Osr),
                                    .Guards = std::move(Inlined.Speculations),
                                    .InlinedBodies = Inlined.InlinedBodies,
                                    .PlanGeneration = Plan.Generation,
                                    .ProfileEpoch = Plan.ProfileEpoch});
}

std::function<vm::CompiledMethod(const bc::Program &, bc::MethodId, int)>
opt::makeCompileHook(std::shared_ptr<const InlinePlan> Plan) {
  return [Plan = std::move(Plan)](const bc::Program &P, bc::MethodId Id,
                                  int Level) -> vm::CompiledMethod {
    return compileMethod(P, Id, Level, *Plan);
  };
}
