//===- vm/CodeCache.cpp - Active code versions -----------------------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//

#include "vm/CodeCache.h"

#include "bytecode/Program.h"
#include "support/ErrorHandling.h"
#include "vm/CostModel.h"

#include <cassert>
#include <cmath>
#include <string>

using namespace cbs;
using namespace cbs::vm;

CodeCache::CodeCache(const bc::Program &P)
    : Active(P.numMethods()), Epochs(P.numMethods(), 0) {}

InstalledVersion *CodeCache::install(CompiledMethod CM) {
  assert(CM.Id < Active.size() && "unknown method");
  assert(!CM.Code.empty() && "installing an empty body");
  assert(CM.CostTable.size() == CM.Code.size() &&
         CM.BaselineCostTable.size() ==
             (CM.ScaleQ8 == 256 ? 0 : CM.Code.size()) &&
         "installing a body whose cost tables do not match its code");
  CompileCycles += CM.CompileCostCycles;
  ++Compiles;
  bc::MethodId Id = CM.Id;
  if (const InstalledVersion *Old = Active[Id].get()) {
    if (Old->Body.Level == CM.Level &&
        Old->Body.PlanGeneration == CM.PlanGeneration)
      reportFatalError(
          "double-install of method " + std::to_string(Id) + " at level " +
          std::to_string(CM.Level) + ", plan generation " +
          std::to_string(CM.PlanGeneration) +
          ": identical version is already active");
    ++Recompiles;
    GraveyardInstructions += Old->Body.Code.size();
    ActiveInstructions -= Old->Body.Code.size();
    Graveyard.push_back(std::move(Active[Id]));
    // A version retired with no live frames never gets another unpin;
    // free it here rather than letting it linger forever.
    reclaimIfUnpinned(Graveyard.back().get());
  }
  ActiveInstructions += CM.Code.size();
  Active[Id] = std::make_unique<InstalledVersion>(std::move(CM));
  return Active[Id].get();
}

const InstalledVersion *CodeCache::invalidate(bc::MethodId Id) {
  assert(Id < Active.size() && "unknown method");
  if (!Active[Id])
    return nullptr;
  Active[Id]->Invalidated = true;
  ++Invalidations;
  ++Epochs[Id];
  GraveyardInstructions += Active[Id]->Body.Code.size();
  ActiveInstructions -= Active[Id]->Body.Code.size();
  Graveyard.push_back(std::move(Active[Id]));
  return Graveyard.back().get();
}

bool CodeCache::reclaimIfUnpinned(const InstalledVersion *V) {
  if (!V || V->PinnedFrames != 0)
    return false;
  for (size_t I = 0, E = Graveyard.size(); I != E; ++I) {
    if (Graveyard[I].get() != V)
      continue;
    GraveyardInstructions -= V->Body.Code.size();
    ReclaimedInstructions += V->Body.Code.size();
    ++Reclaims;
    Graveyard.erase(Graveyard.begin() + static_cast<ptrdiff_t>(I));
    return true;
  }
  return false;
}

CompiledMethod CodeCache::compileBaseline(const bc::Program &P,
                                          bc::MethodId Id, int Level) {
  const bc::Method &M = P.method(Id);
  // The identity translation keeps every loop header where it was, so
  // its OSR table is the identity map over the method's headers.
  std::vector<OsrPoint> Osr;
  for (uint32_t H : loopHeaderPCs(M.Code))
    Osr.push_back({H, H});
  return CompiledMethod::build({.Id = Id,
                                .Level = Level,
                                .NumLocals = M.NumLocals,
                                .Code = M.Code,
                                .ChargedBytes = M.sizeBytes(),
                                .OsrPoints = std::move(Osr)});
}

CompiledMethod CompiledMethod::build(Parts In) {
  assert(In.Level >= 0 && In.Level <= 2 && "optimization level out of range");
  CompiledMethod CM;
  CM.Id = In.Id;
  CM.Level = static_cast<uint8_t>(In.Level);
  CM.ScaleQ8 =
      static_cast<uint16_t>(std::lround(cost::LevelScale[In.Level] * 256.0));
  CM.NumLocals = In.NumLocals;
  CM.Code = std::move(In.Code);
  CM.CompileCostCycles = static_cast<uint64_t>(
      std::llround(cost::CompileCostPerByte[In.Level] *
                   static_cast<double>(In.ChargedBytes)));
  CM.InlinedBodies = In.InlinedBodies;
  CM.Guards = std::move(In.Guards);
  CM.PlanGeneration = In.PlanGeneration;
  CM.ProfileEpoch = In.ProfileEpoch;
  CM.OsrPoints = std::move(In.OsrPoints);

  CM.CostTable.resize(CM.Code.size());
  CM.BaselineCostTable.resize(CM.ScaleQ8 == 256 ? 0 : CM.Code.size());
  for (size_t PC = 0; PC != CM.Code.size(); ++PC) {
    const bc::Instruction &I = CM.Code[PC];
    uint32_t Cycles = bc::instructionCycles(I);
    int32_t Count = I.Op == bc::Opcode::Work ? I.A : 1;
    CM.CostTable[PC] = {CM.scaledCost(Cycles), Count};
    if (!CM.BaselineCostTable.empty())
      CM.BaselineCostTable[PC] = {Cycles, Count};
  }
  return CM;
}
