//===- vm/CodeCache.cpp - Active code versions -----------------------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//

#include "vm/CodeCache.h"

#include "bytecode/Program.h"
#include "support/ErrorHandling.h"

#include <cassert>
#include <cmath>
#include <string>

using namespace cbs;
using namespace cbs::vm;

CodeCache::CodeCache(const bc::Program &P)
    : Active(P.numMethods()), Epochs(P.numMethods(), 0) {}

const CompiledMethod *CodeCache::install(CompiledMethod CM) {
  assert(CM.Id < Active.size() && "unknown method");
  assert(!CM.Code.empty() && "installing an empty body");
  CompileCycles += CM.CompileCostCycles;
  ++Compiles;
  if (Active[CM.Id]) {
    if (Active[CM.Id]->Level == CM.Level &&
        Active[CM.Id]->PlanGeneration == CM.PlanGeneration)
      reportFatalError(
          "double-install of method " + std::to_string(CM.Id) + " at level " +
          std::to_string(CM.Level) + ", plan generation " +
          std::to_string(CM.PlanGeneration) +
          ": identical version is already active");
    ++Recompiles;
    GraveyardInstructions += Active[CM.Id]->Code.size();
    ActiveInstructions -= Active[CM.Id]->Code.size();
    Graveyard.push_back(std::move(Active[CM.Id]));
    // A version retired with no live frames never gets another unpin;
    // free it here rather than letting it linger forever.
    reclaimIfUnpinned(Graveyard.back().get());
  }
  ActiveInstructions += CM.Code.size();
  CM.bakeCosts();
  Active[CM.Id] = std::make_unique<CompiledMethod>(std::move(CM));
  return Active[CM.Id].get();
}

const CompiledMethod *CodeCache::invalidate(bc::MethodId Id) {
  assert(Id < Active.size() && "unknown method");
  if (!Active[Id])
    return nullptr;
  Active[Id]->Invalidated = true;
  ++Invalidations;
  ++Epochs[Id];
  GraveyardInstructions += Active[Id]->Code.size();
  ActiveInstructions -= Active[Id]->Code.size();
  Graveyard.push_back(std::move(Active[Id]));
  return Graveyard.back().get();
}

bool CodeCache::reclaimIfUnpinned(const CompiledMethod *CM) {
  if (!CM || CM->PinnedFrames != 0)
    return false;
  for (size_t I = 0, E = Graveyard.size(); I != E; ++I) {
    if (Graveyard[I].get() != CM)
      continue;
    GraveyardInstructions -= CM->Code.size();
    ReclaimedInstructions += CM->Code.size();
    ++Reclaims;
    Graveyard.erase(Graveyard.begin() + static_cast<ptrdiff_t>(I));
    return true;
  }
  return false;
}

CompiledMethod CodeCache::compileBaseline(const bc::Program &P,
                                          bc::MethodId Id, int Level,
                                          const CostModel &Costs) {
  assert(Level >= 0 && Level <= 2 && "optimization level out of range");
  const bc::Method &M = P.method(Id);
  CompiledMethod CM;
  CM.Id = Id;
  CM.Level = static_cast<uint8_t>(Level);
  CM.ScaleQ8 =
      static_cast<uint16_t>(std::lround(Costs.LevelScale[Level] * 256.0));
  CM.NumLocals = M.NumLocals;
  CM.Code = M.Code;
  // The identity translation keeps every loop header where it was, so
  // its OSR table is the identity map over the method's headers.
  for (uint32_t H : loopHeaderPCs(M.Code))
    CM.OsrPoints.push_back({H, H});
  CM.CompileCostCycles = static_cast<uint64_t>(
      std::llround(Costs.CompileCostPerByte[Level] * M.sizeBytes()));
  return CM;
}
