//===- tests/OSRTest.cpp - on-stack replacement tests --------------------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
//
// End-to-end tests of yieldpoint-based on-stack replacement, in both
// directions: a long-running frame transfers onto the newer installed
// version at its next taken backedge (promotion OSR), and a frame whose
// pinned version was invalidated transfers off the dead code instead of
// limping at baseline speed until it returns (deopt OSR). The battery
// also pins the contract around the feature: with EnableOSR off no
// frame ever transfers, the conservative-pin cap composes with OSR, and
// the code-cache graveyard is fully reclaimed by end of run with OSR on
// or off. Byte-identity at any --compile-jobs count is
// DeterminismMatrixTest's.
//
//===----------------------------------------------------------------------===//

#include "aos/AdaptiveSystem.h"
#include "experiments/Experiments.h"
#include "opt/InlineOracle.h"
#include "telemetry/MetricRegistry.h"
#include "vm/VirtualMachine.h"
#include "workloads/Patterns.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace cbs;
using namespace cbs::bc;

namespace {

/// One hot method running ONE long counted loop with a virtual site.
/// The loop counter counts down from \p Total; the dispatched receiver
/// is class A until \p FlipAt iterations remain, then class B. With
/// FlipAt = 0 the site is monomorphic for the whole run (the promotion
/// shape); with FlipAt = Total/2 the dominant receiver dies mid-loop
/// while the frame is still inside it (the deopt-OSR shape — exactly
/// the long-lived frame OSR-less deoptimization cannot repair).
Program longLoopProgram(int64_t Total, int64_t FlipAt) {
  ProgramBuilder PB;
  wl::ClassFamily Family = wl::makeClassFamily(PB, "OsrHandler", 2);
  SelectorId Sel = PB.addSelector("handle", 2);
  wl::implementSelector(PB, Family, Sel, {6, 6}, {3, 3});

  // loop(count): locals 0 count, 1 pick, 2 acc, 3..4 receivers.
  MethodId Loop = PB.declareStatic("loop", {ValKind::Int},
                                   /*HasResult=*/true, ValKind::Int);
  {
    MethodBuilder MB = PB.defineMethod(Loop);
    MB.iconst(0).istore(2);
    wl::emitReceiverInit(MB, Family.Subclasses, /*FirstSlot=*/3);
    Label Head = MB.newLabel(), Exit = MB.newLabel();
    Label Second = MB.newLabel(), Picked = MB.newLabel();
    MB.bind(Head).iload(0).ifLe(Exit);
    MB.work(30);
    // pick = (count - FlipAt > 0) ? 0 : 15 — A first, B for the tail.
    MB.iload(0).iconst(static_cast<int32_t>(FlipAt)).isub().ifLe(Second);
    MB.iconst(0).istore(1).jump(Picked);
    MB.bind(Second).iconst(15).istore(1);
    MB.bind(Picked);
    wl::emitPickReceiver(MB, 1, {{3, 8}, {4, 16}}, 16);
    MB.iload(0).invokeVirtual(Sel).iload(2).iadd().istore(2);
    MB.iinc(0, -1).jump(Head);
    MB.bind(Exit).iload(2).iret();
    MB.finish();
  }

  MethodId Main = PB.declareStatic("main");
  {
    MethodBuilder MB = PB.defineMethod(Main);
    MB.iconst(Total).invokeStatic(Loop).print();
    MB.finish();
  }
  return PB.finish(Main);
}

/// Counter value from the VM's metric registry, 0 when unregistered.
uint64_t counter(vm::VirtualMachine &VM, const char *Name) {
  const tel::Counter *C = VM.metrics().findCounter(Name);
  return C ? static_cast<uint64_t>(*C) : 0;
}

uint64_t gauge(vm::VirtualMachine &VM, const char *Name) {
  const tel::Gauge *G = VM.metrics().findGauge(Name);
  return G ? static_cast<uint64_t>(*G) : 0;
}

struct OsrRun {
  std::vector<int64_t> Output;
  uint64_t Cycles = 0;
  uint64_t Entries = 0;
  uint64_t Exits = 0;
  uint64_t FramesDeopted = 0;
  uint64_t GraveyardInstructions = 0;
  uint64_t ReclaimedInstructions = 0;
  uint64_t Reclaims = 0;
  uint64_t RetiredVersions = 0; ///< recompiles + invalidations
  aos::DeoptStats Deopt;
};

/// Runs \p P under the adaptive system (DeoptTest's configuration) with
/// OSR on or off.
OsrRun runWithOsr(const Program &P, bool EnableOSR,
                  aos::DeoptConfig Deopt = {}) {
  vm::VMConfig Config = exp::jitOnlyConfig(P, vm::Personality::JikesRVM, 1);
  Config.Profiler.Kind = vm::ProfilerKind::CBS;
  Config.Profiler.CBS.Stride = 3;
  Config.Profiler.CBS.SamplesPerTick = 16;
  Config.Profiler.DecayEveryTicks = 4;
  Config.Profiler.DecayFactor = 0.5;
  Config.TimerPeriodCycles = 20'000;
  Config.EnableOSR = EnableOSR;

  aos::AOSConfig AC;
  AC.Deopt = Deopt;
  AC.Level1Samples = 2;
  AC.Level2Samples = 3;
  opt::NewJikesOracle Oracle;
  aos::AdaptiveSystem AOS(&Oracle, AC);
  vm::VirtualMachine VM(P, Config);
  VM.setClient(&AOS);
  EXPECT_EQ(VM.run(), vm::RunState::Finished) << VM.trapMessage();

  OsrRun R;
  R.Output = VM.output();
  R.Cycles = VM.stats().Cycles;
  R.Entries = counter(VM, "vm.osr_entries");
  R.Exits = counter(VM, "vm.osr_exits");
  R.FramesDeopted = counter(VM, "vm.frames_deopted");
  R.GraveyardInstructions = gauge(VM, "code.graveyard_instructions");
  R.ReclaimedInstructions =
      gauge(VM, "code.graveyard_reclaimed_instructions");
  R.Reclaims = gauge(VM, "code.graveyard_reclaims");
  R.RetiredVersions =
      gauge(VM, "code.recompiles") + gauge(VM, "code.invalidations");
  if (AOS.deoptController())
    R.Deopt = AOS.deoptController()->stats();
  return R;
}

/// The reference semantics: no adaptive system at all.
std::vector<int64_t> baselineOutput(const Program &P) {
  vm::VMConfig Config;
  Config.MaxCycles = 4'000'000'000ull;
  vm::VirtualMachine VM(P, Config);
  EXPECT_EQ(VM.run(), vm::RunState::Finished) << VM.trapMessage();
  return VM.output();
}

} // namespace

TEST(Osr, PromotionTransfersLongRunningFrame) {
  // One frame spans the whole run; every install for `loop` lands while
  // that frame is mid-loop, so without OSR the new versions would never
  // execute at all.
  Program P = longLoopProgram(200'000, /*FlipAt=*/0);
  OsrRun R = runWithOsr(P, /*EnableOSR=*/true);

  EXPECT_GE(R.Entries, 1u)
      << "the promoted version must be entered at a backedge yieldpoint";
  EXPECT_EQ(R.Exits, 0u) << "nothing was invalidated in this run";
  EXPECT_EQ(R.Output, baselineOutput(P))
      << "transferring a live frame must not change what it computes";

  // The same run without OSR is strictly slower: the single frame stays
  // on the baseline-compiled version to the end.
  OsrRun Stale = runWithOsr(P, /*EnableOSR=*/false);
  EXPECT_EQ(Stale.Entries, 0u);
  EXPECT_EQ(R.Output, Stale.Output);
  EXPECT_LT(R.Cycles, Stale.Cycles)
      << "promotion OSR must let the long-running frame use the "
         "optimized code it paid to compile";
}

TEST(Osr, DeoptExitTransfersOffInvalidatedCode) {
  // The forced storm invalidates every install at the next taken
  // yieldpoint; frames reconcile to Deopted, and with OSR on each one
  // must transfer off the dead version at its next loop header.
  Program P = longLoopProgram(100'000, /*FlipAt=*/0);
  aos::DeoptConfig Deopt;
  Deopt.Enabled = true;
  Deopt.ForceStormForTesting = true;
  OsrRun R = runWithOsr(P, /*EnableOSR=*/true, Deopt);

  EXPECT_GE(R.FramesDeopted, 1u) << "the storm never caught a live frame";
  EXPECT_GE(R.Exits, 1u)
      << "a deopted frame inside a loop must OSR-exit at the next header";
  EXPECT_EQ(R.Output, baselineOutput(P));
}

TEST(Osr, LongLivedFrameRecoversFromMidLoopDeopt) {
  // The receiver flips while the one long-lived frame is mid-loop: the
  // guard dies, the version is invalidated, and the frame still has
  // half the loop ahead of it. Without OSR that deopt is a pure loss
  // (the frame limps at baseline speed to the end and the repair is
  // never entered); with OSR the frame transfers to the repair.
  Program P = longLoopProgram(200'000, /*FlipAt=*/100'000);
  aos::DeoptConfig Deopt;
  Deopt.Enabled = true;
  Deopt.DominanceThresholdPct = 40.0;
  Deopt.MinSiteWeight = 4;

  OsrRun NoOsr = runWithOsr(P, /*EnableOSR=*/false, Deopt);
  OsrRun Osr = runWithOsr(P, /*EnableOSR=*/true, Deopt);

  ASSERT_GE(Osr.Deopt.Deopts, 1u)
      << "the mid-loop dominance flip must deoptimize the loop method";
  EXPECT_GE(Osr.Exits, 1u);
  EXPECT_EQ(Osr.Output, baselineOutput(P));
  EXPECT_EQ(Osr.Output, NoOsr.Output);
  EXPECT_LE(Osr.Cycles, NoOsr.Cycles)
      << "transferring off invalidated code must never cost more than "
         "limping on it at baseline speed";
}

TEST(Osr, ConservativePinInteractionUnderStorm) {
  // MaxDeoptsPerMethod = 1: the first storm invalidation pins methods
  // to the conservative plan. OSR must compose — deopted frames
  // transfer onto the conservative repair, and repeated transfers stay
  // semantics-preserving.
  Program P = longLoopProgram(100'000, /*FlipAt=*/0);
  aos::DeoptConfig Deopt;
  Deopt.Enabled = true;
  Deopt.ForceStormForTesting = true;
  Deopt.MaxDeoptsPerMethod = 1;
  OsrRun R = runWithOsr(P, /*EnableOSR=*/true, Deopt);

  EXPECT_GE(R.Deopt.ConservativePins, 1u)
      << "one deopt must pin under MaxDeoptsPerMethod=1";
  EXPECT_GE(R.Exits, 1u);
  EXPECT_EQ(R.Output, baselineOutput(P));
}

TEST(Osr, OffByDefaultAndFullyInert) {
  // EnableOSR defaults to off, and an OSR-off run — even one with
  // plenty of invalidations — must never transfer a frame.
  EXPECT_FALSE(vm::VMConfig().EnableOSR);

  Program P = longLoopProgram(100'000, /*FlipAt=*/0);
  aos::DeoptConfig Deopt;
  Deopt.Enabled = true;
  Deopt.ForceStormForTesting = true;
  OsrRun R = runWithOsr(P, /*EnableOSR=*/false, Deopt);

  EXPECT_EQ(R.Entries, 0u);
  EXPECT_EQ(R.Exits, 0u);
  EXPECT_EQ(R.Output, baselineOutput(P));
}

TEST(Osr, GraveyardFullyReclaimedAtEndOfRun) {
  // Every retired version is eventually unpinned — frames either return
  // or transfer out — so by end of run the graveyard must be empty and
  // the reclaim count must equal every version ever retired, whether
  // or not frames can leave retired code early through OSR.
  Program P = longLoopProgram(200'000, /*FlipAt=*/100'000);
  aos::DeoptConfig Deopt;
  Deopt.Enabled = true;
  Deopt.DominanceThresholdPct = 40.0;
  Deopt.MinSiteWeight = 4;
  for (bool EnableOSR : {true, false}) {
    SCOPED_TRACE(EnableOSR ? "osr on" : "osr off");
    OsrRun R = runWithOsr(P, EnableOSR, Deopt);

    EXPECT_GE(R.Deopt.Deopts, 1u);
    EXPECT_EQ(R.GraveyardInstructions, 0u)
        << "a retired version survived the last unpin";
    EXPECT_GT(R.ReclaimedInstructions, 0u);
    EXPECT_EQ(R.Reclaims, R.RetiredVersions)
        << "every retired version (recompile or invalidation) must be "
           "reclaimed exactly once";
  }
}
