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
// last pinned frame leaves, and never before.
//
//===----------------------------------------------------------------------===//

#include "vm/CodeCache.h"

#include "bytecode/Builder.h"

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
  CostModel Costs;

  EXPECT_EQ(Cache.active(0), nullptr);
  EXPECT_EQ(Cache.activeLevel(0), -1);
  EXPECT_EQ(Cache.activeCodeInstructions(), 0u);

  const CompiledMethod *L0 =
      Cache.install(CodeCache::compileBaseline(P, 0, 0, Costs));
  ASSERT_NE(L0, nullptr);
  EXPECT_EQ(Cache.active(0), L0);
  EXPECT_EQ(Cache.activeLevel(0), 0);
  EXPECT_EQ(Cache.activeCodeInstructions(), L0->Code.size());
  EXPECT_EQ(Cache.graveyardCodeInstructions(), 0u);
  EXPECT_EQ(Cache.numCompiles(), 1u);
  EXPECT_EQ(Cache.numRecompiles(), 0u);
}

TEST(CodeCache, RecompileRetiresOldVersionToGraveyard) {
  Program P = twoMethodProgram();
  CodeCache Cache(P);
  CostModel Costs;

  const CompiledMethod *L0 =
      Cache.install(CodeCache::compileBaseline(P, 0, 0, Costs));
  size_t L0Size = L0->Code.size();
  Cache.pinFrame(L0); // a live frame keeps the retiree in the graveyard
  const CompiledMethod *L1 =
      Cache.install(CodeCache::compileBaseline(P, 0, 1, Costs));

  EXPECT_EQ(Cache.active(0), L1);
  EXPECT_EQ(Cache.activeLevel(0), 1);
  EXPECT_EQ(Cache.numRecompiles(), 1u);
  EXPECT_EQ(Cache.graveyardSize(), 1u);
  EXPECT_EQ(Cache.activeCodeInstructions(), L1->Code.size());
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
  CostModel Costs;

  const CompiledMethod *L1 =
      Cache.install(CodeCache::compileBaseline(P, 0, 1, Costs));
  size_t L1Size = L1->Code.size();

  const CompiledMethod *Retired = Cache.invalidate(0);
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
  CostModel Costs;

  Cache.install(CodeCache::compileBaseline(P, 0, 1, Costs));
  Cache.invalidate(0);

  // Same (level, plan generation) as the invalidated version: legal,
  // because the active slot is empty — this is exactly the recompile a
  // deoptimization enqueues.
  const CompiledMethod *Again =
      Cache.install(CodeCache::compileBaseline(P, 0, 1, Costs));
  EXPECT_EQ(Cache.active(0), Again);
  EXPECT_FALSE(Again->Invalidated);
  EXPECT_EQ(Cache.invalidationEpoch(0), 1u);
  EXPECT_EQ(Cache.activeCodeInstructions(), Again->Code.size());

  // A second deopt cycle keeps the books exact.
  size_t FirstGraveyard = Cache.graveyardCodeInstructions();
  Cache.invalidate(0);
  EXPECT_EQ(Cache.invalidationEpoch(0), 2u);
  EXPECT_EQ(Cache.activeCodeInstructions(), 0u);
  EXPECT_EQ(Cache.graveyardCodeInstructions(),
            FirstGraveyard + Again->Code.size());
  EXPECT_EQ(Cache.graveyardSize(), 2u);
}

TEST(CodeCache, EpochsAreTrackedPerMethod) {
  Program P = twoMethodProgram();
  CodeCache Cache(P);
  CostModel Costs;

  Cache.install(CodeCache::compileBaseline(P, 0, 0, Costs));
  Cache.install(CodeCache::compileBaseline(P, 1, 0, Costs));
  Cache.invalidate(0);
  EXPECT_EQ(Cache.invalidationEpoch(0), 1u);
  EXPECT_EQ(Cache.invalidationEpoch(1), 0u)
      << "invalidating one method must not advance another's epoch";
}

TEST(CodeCache, DoubleInstallOfIdenticalVersionIsFatal) {
  Program P = twoMethodProgram();
  CodeCache Cache(P);
  CostModel Costs;
  Cache.install(CodeCache::compileBaseline(P, 0, 1, Costs));
  EXPECT_DEATH(Cache.install(CodeCache::compileBaseline(P, 0, 1, Costs)),
               "double-install of method 0");
}

TEST(CodeCache, HigherLevelOrNewerPlanIsNotADoubleInstall) {
  Program P = twoMethodProgram();
  CodeCache Cache(P);
  CostModel Costs;
  Cache.install(CodeCache::compileBaseline(P, 0, 1, Costs));

  // Same level, newer plan generation: a legitimate reoptimization.
  CompiledMethod NewPlan = CodeCache::compileBaseline(P, 0, 1, Costs);
  NewPlan.PlanGeneration = 3;
  Cache.install(std::move(NewPlan));
  EXPECT_EQ(Cache.active(0)->PlanGeneration, 3u);
  EXPECT_EQ(Cache.numRecompiles(), 1u);

  // Higher level: also legitimate.
  Cache.install(CodeCache::compileBaseline(P, 0, 2, Costs));
  EXPECT_EQ(Cache.activeLevel(0), 2);
  EXPECT_EQ(Cache.numRecompiles(), 2u);
}

TEST(CodeCache, PinnedRetiredVersionReclaimedAtLastUnpin) {
  // A version invalidated while a live frame still executes it must
  // survive exactly until that frame transfers out (OSR) or returns,
  // then be reclaimed with exact capacity accounting.
  Program P = twoMethodProgram();
  CodeCache Cache(P);
  CostModel Costs;

  const CompiledMethod *V1 =
      Cache.install(CodeCache::compileBaseline(P, 0, 0, Costs));
  size_t V1Size = V1->Code.size();
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
  CostModel Costs;

  const CompiledMethod *V1 =
      Cache.install(CodeCache::compileBaseline(P, 0, 0, Costs));
  size_t V1Size = V1->Code.size();
  Cache.install(CodeCache::compileBaseline(P, 0, 1, Costs));
  EXPECT_EQ(Cache.graveyardCodeInstructions(), 0u);
  EXPECT_EQ(Cache.graveyardSize(), 0u);
  EXPECT_EQ(Cache.reclaimedCodeInstructions(), V1Size);
  EXPECT_EQ(Cache.numReclaims(), 1u);
}
