//===- tests/CodeCacheTest.cpp - code cache lifecycle tests --------------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
//
// Install / invalidate / reinstall cycles on the CodeCache directly:
// capacity accounting must stay exact through every transition, the
// invalidation epoch must advance exactly when a version is retired
// without replacement, and a double-install of an identical version is
// a checked error rather than a silent graveyard leak. The accounting
// extends to reclamation: a retired version is freed exactly when its
// last pinned frame leaves, and never before. Bodies reach the cache
// already built: both compile paths bake their cost tables in
// CompiledMethod::build, and install moves a body in unchanged.
//
//===----------------------------------------------------------------------===//

#include "vm/CodeCache.h"

#include "bytecode/Builder.h"
#include "opt/Compiler.h"

#include <gtest/gtest.h>

using namespace cbs;
using namespace cbs::bc;
using namespace cbs::vm;

namespace {

/// Two tiny methods, enough for independent install chains.
Program twoMethodProgram() {
  ProgramBuilder PB;
  MethodId A = PB.declareStatic("alpha", {}, /*HasResult=*/true);
  {
    MethodBuilder MB = PB.defineMethod(A);
    MB.work(10).iconst(1).iret();
    MB.finish();
  }
  MethodId Main = PB.declareStatic("main");
  {
    MethodBuilder MB = PB.defineMethod(Main);
    MB.invokeStatic(A).print();
    MB.finish();
  }
  return PB.finish(Main);
}

} // namespace

TEST(CodeCache, InstallTracksActiveAccounting) {
  Program P = twoMethodProgram();
  CodeCache Cache(P);

  EXPECT_EQ(Cache.active(0), nullptr);
  EXPECT_EQ(Cache.activeLevel(0), -1);
  EXPECT_EQ(Cache.activeCodeInstructions(), 0u);

  InstalledVersion *L0 =
      Cache.install(CodeCache::compileBaseline(P, 0, 0));
  ASSERT_NE(L0, nullptr);
  EXPECT_EQ(Cache.active(0), &L0->Body);
  EXPECT_EQ(Cache.activeLevel(0), 0);
  EXPECT_EQ(Cache.activeCodeInstructions(), L0->Body.Code.size());
  EXPECT_EQ(Cache.graveyardCodeInstructions(), 0u);
  EXPECT_EQ(Cache.numCompiles(), 1u);
  EXPECT_EQ(Cache.numRecompiles(), 0u);
}

TEST(CodeCache, RecompileRetiresOldVersionToGraveyard) {
  Program P = twoMethodProgram();
  CodeCache Cache(P);

  InstalledVersion *L0 =
      Cache.install(CodeCache::compileBaseline(P, 0, 0));
  size_t L0Size = L0->Body.Code.size();
  Cache.pinFrame(L0); // a live frame keeps the retiree in the graveyard
  InstalledVersion *L1 =
      Cache.install(CodeCache::compileBaseline(P, 0, 1));

  EXPECT_EQ(Cache.active(0), &L1->Body);
  EXPECT_EQ(Cache.activeLevel(0), 1);
  EXPECT_EQ(Cache.numRecompiles(), 1u);
  EXPECT_EQ(Cache.graveyardSize(), 1u);
  EXPECT_EQ(Cache.activeCodeInstructions(), L1->Body.Code.size());
  EXPECT_EQ(Cache.graveyardCodeInstructions(), L0Size);
  // A recompile is not a deoptimization: the retired version is intact
  // and the method's invalidation epoch does not move.
  EXPECT_FALSE(L0->Invalidated);
  EXPECT_EQ(Cache.invalidationEpoch(0), 0u);
  EXPECT_EQ(Cache.numInvalidations(), 0u);
}

TEST(CodeCache, InvalidateRetiresWithNoReplacement) {
  Program P = twoMethodProgram();
  CodeCache Cache(P);

  InstalledVersion *L1 =
      Cache.install(CodeCache::compileBaseline(P, 0, 1));
  size_t L1Size = L1->Body.Code.size();

  const InstalledVersion *Retired = Cache.invalidate(0);
  ASSERT_EQ(Retired, L1) << "the retired version stays alive in the graveyard";
  EXPECT_TRUE(Retired->Invalidated);
  EXPECT_EQ(Cache.active(0), nullptr);
  EXPECT_EQ(Cache.activeLevel(0), -1);
  EXPECT_EQ(Cache.invalidationEpoch(0), 1u);
  EXPECT_EQ(Cache.numInvalidations(), 1u);
  EXPECT_EQ(Cache.activeCodeInstructions(), 0u);
  EXPECT_EQ(Cache.graveyardCodeInstructions(), L1Size);
  EXPECT_EQ(Cache.graveyardSize(), 1u);
}

TEST(CodeCache, InvalidateWithNothingActiveIsANoOp) {
  Program P = twoMethodProgram();
  CodeCache Cache(P);
  EXPECT_EQ(Cache.invalidate(0), nullptr);
  EXPECT_EQ(Cache.invalidationEpoch(0), 0u)
      << "the epoch only advances when a version is actually retired";
  EXPECT_EQ(Cache.numInvalidations(), 0u);
}

TEST(CodeCache, ReinstallAfterInvalidateStartsAFreshChain) {
  Program P = twoMethodProgram();
  CodeCache Cache(P);

  Cache.install(CodeCache::compileBaseline(P, 0, 1));
  Cache.invalidate(0);

  // Same (level, plan generation) as the invalidated version: legal,
  // because the active slot is empty — this is exactly the recompile a
  // deoptimization enqueues.
  InstalledVersion *Again =
      Cache.install(CodeCache::compileBaseline(P, 0, 1));
  EXPECT_EQ(Cache.active(0), &Again->Body);
  EXPECT_FALSE(Again->Invalidated);
  EXPECT_EQ(Cache.invalidationEpoch(0), 1u);
  EXPECT_EQ(Cache.activeCodeInstructions(), Again->Body.Code.size());

  // A second deopt cycle keeps the books exact.
  size_t FirstGraveyard = Cache.graveyardCodeInstructions();
  Cache.invalidate(0);
  EXPECT_EQ(Cache.invalidationEpoch(0), 2u);
  EXPECT_EQ(Cache.activeCodeInstructions(), 0u);
  EXPECT_EQ(Cache.graveyardCodeInstructions(),
            FirstGraveyard + Again->Body.Code.size());
  EXPECT_EQ(Cache.graveyardSize(), 2u);
}

TEST(CodeCache, EpochsAreTrackedPerMethod) {
  Program P = twoMethodProgram();
  CodeCache Cache(P);

  Cache.install(CodeCache::compileBaseline(P, 0, 0));
  Cache.install(CodeCache::compileBaseline(P, 1, 0));
  Cache.invalidate(0);
  EXPECT_EQ(Cache.invalidationEpoch(0), 1u);
  EXPECT_EQ(Cache.invalidationEpoch(1), 0u)
      << "invalidating one method must not advance another's epoch";
}

TEST(CodeCache, DoubleInstallOfIdenticalVersionIsFatal) {
  Program P = twoMethodProgram();
  CodeCache Cache(P);
  Cache.install(CodeCache::compileBaseline(P, 0, 1));
  EXPECT_DEATH(Cache.install(CodeCache::compileBaseline(P, 0, 1)),
               "double-install of method 0");
}

TEST(CodeCache, HigherLevelOrNewerPlanIsNotADoubleInstall) {
  Program P = twoMethodProgram();
  CodeCache Cache(P);
  Cache.install(CodeCache::compileBaseline(P, 0, 1));

  // Same level, newer plan generation: a legitimate reoptimization.
  Cache.install(CompiledMethod::build({.Id = 0,
                                       .Level = 1,
                                       .NumLocals = P.method(0).NumLocals,
                                       .Code = P.method(0).Code,
                                       .PlanGeneration = 3}));
  EXPECT_EQ(Cache.active(0)->PlanGeneration, 3u);
  EXPECT_EQ(Cache.numRecompiles(), 1u);

  // Higher level: also legitimate.
  Cache.install(CodeCache::compileBaseline(P, 0, 2));
  EXPECT_EQ(Cache.activeLevel(0), 2);
  EXPECT_EQ(Cache.numRecompiles(), 2u);
}

TEST(CodeCache, PinnedRetiredVersionReclaimedAtLastUnpin) {
  // A version invalidated while a live frame still executes it must
  // survive exactly until that frame transfers out (OSR) or returns,
  // then be reclaimed with exact capacity accounting.
  Program P = twoMethodProgram();
  CodeCache Cache(P);

  InstalledVersion *V1 =
      Cache.install(CodeCache::compileBaseline(P, 0, 0));
  size_t V1Size = V1->Body.Code.size();
  Cache.pinFrame(V1); // a frame enters the version
  Cache.pinFrame(V1); // ...and a second one

  // Retired while pinned: kept alive, fully accounted in the graveyard.
  Cache.invalidate(0);
  EXPECT_EQ(Cache.graveyardCodeInstructions(), V1Size);
  EXPECT_EQ(Cache.graveyardSize(), 1u);
  EXPECT_EQ(Cache.reclaimedCodeInstructions(), 0u);
  EXPECT_EQ(Cache.numReclaims(), 0u);

  // First frame leaves: still pinned by the second, still alive.
  Cache.unpinFrame(V1);
  EXPECT_EQ(Cache.graveyardCodeInstructions(), V1Size);
  EXPECT_EQ(Cache.numReclaims(), 0u);

  // Last frame transfers out: reclaimed on the spot, books exact.
  Cache.unpinFrame(V1);
  EXPECT_EQ(Cache.graveyardCodeInstructions(), 0u);
  EXPECT_EQ(Cache.graveyardSize(), 0u);
  EXPECT_EQ(Cache.reclaimedCodeInstructions(), V1Size);
  EXPECT_EQ(Cache.numReclaims(), 1u);
}

TEST(CodeCache, UnpinnedRetireeReclaimedImmediatelyOnRecompile) {
  // install() retiring a version with no pinned frames frees it right
  // away — no frame will ever report an unpin for it.
  Program P = twoMethodProgram();
  CodeCache Cache(P);

  InstalledVersion *V1 =
      Cache.install(CodeCache::compileBaseline(P, 0, 0));
  size_t V1Size = V1->Body.Code.size();
  Cache.install(CodeCache::compileBaseline(P, 0, 1));
  EXPECT_EQ(Cache.graveyardCodeInstructions(), 0u);
  EXPECT_EQ(Cache.graveyardSize(), 0u);
  EXPECT_EQ(Cache.reclaimedCodeInstructions(), V1Size);
  EXPECT_EQ(Cache.numReclaims(), 1u);
}

namespace {

/// One cost entry per instruction, in the table the body's scale
/// selects: CostTable always, BaselineCostTable only off scale 1.0.
void expectBaked(const CompiledMethod &CM) {
  ASSERT_FALSE(CM.Code.empty());
  ASSERT_EQ(CM.CostTable.size(), CM.Code.size());
  ASSERT_EQ(CM.BaselineCostTable.size(),
            CM.ScaleQ8 == 256 ? 0u : CM.Code.size());
  for (size_t PC = 0; PC != CM.Code.size(); ++PC) {
    const Instruction &I = CM.Code[PC];
    uint32_t Cycles = instructionCycles(I);
    int32_t Count = I.Op == Opcode::Work ? I.A : 1;
    EXPECT_EQ(CM.CostTable[PC].Cycles, CM.scaledCost(Cycles)) << PC;
    EXPECT_EQ(CM.CostTable[PC].Instructions, Count) << PC;
    EXPECT_EQ(CM.baselineCosts()[PC].Cycles, Cycles) << PC;
    EXPECT_EQ(CM.baselineCosts()[PC].Instructions, Count) << PC;
  }
}

/// Installs \p CM and expects the installed body to be \p CM as built:
/// equal code and tables, at the addresses they had before install.
void expectInstalledUnchanged(CodeCache &Cache, CompiledMethod CM) {
  const std::vector<Instruction> Code = CM.Code;
  const std::vector<PcCost> Costs = CM.CostTable;
  const std::vector<PcCost> Baseline = CM.BaselineCostTable;
  const Instruction *CodeAt = CM.Code.data();
  const PcCost *CostsAt = CM.CostTable.data();
  const PcCost *BaselineAt = CM.BaselineCostTable.data();

  const CompiledMethod &Body = Cache.install(std::move(CM))->Body;
  ASSERT_EQ(Body.Code.size(), Code.size());
  ASSERT_EQ(Body.CostTable.size(), Costs.size());
  for (size_t PC = 0; PC != Code.size(); ++PC) {
    EXPECT_EQ(Body.Code[PC].Op, Code[PC].Op) << PC;
    EXPECT_EQ(Body.Code[PC].A, Code[PC].A) << PC;
    EXPECT_EQ(Body.CostTable[PC].Cycles, Costs[PC].Cycles) << PC;
    EXPECT_EQ(Body.CostTable[PC].Instructions, Costs[PC].Instructions) << PC;
  }
  ASSERT_EQ(Body.BaselineCostTable.size(), Baseline.size());
  for (size_t PC = 0; PC != Baseline.size(); ++PC)
    EXPECT_EQ(Body.BaselineCostTable[PC].Cycles, Baseline[PC].Cycles) << PC;
  EXPECT_EQ(Body.Code.data(), CodeAt);
  EXPECT_EQ(Body.CostTable.data(), CostsAt);
  EXPECT_EQ(Body.BaselineCostTable.data(), BaselineAt);
}

} // namespace

TEST(CodeCache, BaselineBodyIsBakedBeforeInstall) {
  Program P = twoMethodProgram();
  CodeCache Cache(P);
  for (int Level = 0; Level <= 2; ++Level) {
    CompiledMethod CM = CodeCache::compileBaseline(P, 0, Level);
    ASSERT_NO_FATAL_FAILURE(expectBaked(CM)) << "level " << Level;
    expectInstalledUnchanged(Cache, std::move(CM));
  }
}

TEST(CodeCache, OptimizedBodyIsBakedBeforeInstall) {
  Program P = twoMethodProgram();
  CodeCache Cache(P);
  // main inlines alpha at level 2: a body the inliner and optimizer
  // both reshaped, at a scale below 1.0.
  opt::InlinePlan Plan;
  Plan.Decisions[0] = {opt::InlineDecision::Kind::Direct, 0, {}};
  Plan.Generation = 1;
  CompiledMethod CM = opt::compileMethod(P, 1, 2, Plan);
  EXPECT_EQ(CM.InlinedBodies, 1u);
  EXPECT_LT(CM.ScaleQ8, 256u);
  ASSERT_NO_FATAL_FAILURE(expectBaked(CM));
  expectInstalledUnchanged(Cache, std::move(CM));
}
