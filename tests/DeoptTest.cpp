//===- tests/DeoptTest.cpp - deoptimization subsystem tests --------------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
//
// End-to-end tests of guard policing and deoptimization: a guarded
// inline whose assumed receiver loses dominance is deoptimized and
// recompiled; a quality-monitor phase shift invalidates speculation
// wholesale; the forced-invalidation storm (every install deoptimized
// at the next taken yieldpoint) never perturbs program semantics; the
// deopt cap pins a flapping method to the conservative plan; and
// in-flight compile requests for a deoptimized method are dropped as
// stale.
//
//===----------------------------------------------------------------------===//

#include "aos/AdaptiveSystem.h"
#include "experiments/Experiments.h"
#include "opt/InlineOracle.h"
#include "telemetry/MetricRegistry.h"
#include "vm/VirtualMachine.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace cbs;
using namespace cbs::bc;

namespace {

/// A program with ONE virtual site whose dominant receiver flips
/// mid-run: main calls loop(N, 0) — every dispatch binds class A —
/// then loop(N, 15) — every dispatch binds class B. With profile decay
/// on, the DCG's dominant callee at the site flips during the second
/// half, killing any guard that assumed A.
Program shiftingReceiverProgram(int64_t PerPhase) {
  ProgramBuilder PB;
  wl::ClassFamily Family = wl::makeClassFamily(PB, "ShiftHandler", 2);
  SelectorId Sel = PB.addSelector("handle", 2);
  wl::implementSelector(PB, Family, Sel, {6, 6}, {3, 3});

  // loop(count, pick): locals 0 count, 1 pick, 2 acc, 3..4 receivers.
  MethodId Loop = PB.declareStatic("loop", {ValKind::Int, ValKind::Int},
                                   /*HasResult=*/true, ValKind::Int);
  {
    MethodBuilder MB = PB.defineMethod(Loop);
    MB.iconst(0).istore(2);
    wl::emitReceiverInit(MB, Family.Subclasses, /*FirstSlot=*/3);
    Label Head = MB.newLabel(), Exit = MB.newLabel();
    MB.bind(Head).iload(0).ifLe(Exit);
    MB.work(30);
    // pick < 8 -> slot 3 (class A); pick >= 8 -> slot 4 (class B).
    wl::emitPickReceiver(MB, 1, {{3, 8}, {4, 16}}, 16);
    MB.iload(0).invokeVirtual(Sel).iload(2).iadd().istore(2);
    MB.iinc(0, -1).jump(Head);
    MB.bind(Exit).iload(2).iret();
    MB.finish();
  }

  MethodId Main = PB.declareStatic("main");
  {
    MethodBuilder MB = PB.defineMethod(Main);
    MB.iconst(PerPhase).iconst(0).invokeStatic(Loop).istore(0);
    MB.iconst(PerPhase).iconst(15).invokeStatic(Loop).iload(0).iadd().istore(0);
    MB.iload(0).print();
    MB.finish();
  }
  return PB.finish(Main);
}

/// Counter value from the VM's metric registry, 0 when unregistered.
uint64_t counter(vm::VirtualMachine &VM, const char *Name) {
  const tel::Counter *C = VM.metrics().findCounter(Name);
  return C ? static_cast<uint64_t>(*C) : 0;
}

struct DeoptRun {
  std::vector<int64_t> Output;
  uint64_t Cycles = 0;
  uint64_t VmDeopts = 0;
  uint64_t FramesDeopted = 0;
  aos::DeoptStats Stats;
  aos::AOSStats AOS;
};

/// Runs \p P under the adaptive system with \p Deopt policing.
DeoptRun runWithDeopt(const Program &P, aos::DeoptConfig Deopt,
                      double LatencyScale = 1.0) {
  vm::VMConfig Config = exp::jitOnlyConfig(P, vm::Personality::JikesRVM, 1);
  Config.Profiler.Kind = vm::ProfilerKind::CBS;
  Config.Profiler.CBS.Stride = 3;
  Config.Profiler.CBS.SamplesPerTick = 16;
  Config.Profiler.DecayEveryTicks = 4;
  Config.Profiler.DecayFactor = 0.5;
  Config.TimerPeriodCycles = 20'000;

  aos::AOSConfig AC;
  AC.CompileLatencyScale = LatencyScale;
  AC.Deopt = Deopt;
  AC.Level1Samples = 2;
  AC.Level2Samples = 3;
  opt::NewJikesOracle Oracle;
  aos::AdaptiveSystem AOS(&Oracle, AC);
  vm::VirtualMachine VM(P, Config);
  VM.setClient(&AOS);
  EXPECT_EQ(VM.run(), vm::RunState::Finished) << VM.trapMessage();

  DeoptRun R;
  R.Output = VM.output();
  R.Cycles = VM.stats().Cycles;
  R.VmDeopts = counter(VM, "vm.deopts");
  R.FramesDeopted = counter(VM, "vm.frames_deopted");
  if (AOS.deoptController())
    R.Stats = AOS.deoptController()->stats();
  R.AOS = AOS.stats();
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

TEST(Deopt, GuardFailsWhenAssumedCalleeLosesDominance) {
  Program P = shiftingReceiverProgram(30'000);
  aos::DeoptConfig Deopt;
  Deopt.Enabled = true;
  Deopt.DominanceThresholdPct = 40.0;
  Deopt.MinSiteWeight = 4;
  DeoptRun R = runWithDeopt(P, Deopt);

  EXPECT_GT(R.Stats.GuardChecks, 0u) << "guarded versions were never policed";
  EXPECT_GE(R.Stats.GuardFailures, 1u)
      << "the dominance flip at the shared site must kill the guard";
  EXPECT_GE(R.Stats.Deopts, 1u);
  EXPECT_GE(R.Stats.Recompiles, 1u)
      << "every deopt enqueues a repair against the fresh plan";
  EXPECT_EQ(R.VmDeopts, R.Stats.Deopts)
      << "vm.deopts mirrors the controller's invalidations";
  EXPECT_EQ(R.Output, baselineOutput(P))
      << "deoptimization must never change what the program prints";
}

TEST(Deopt, PhaseShiftInvalidatesSpeculativeCode) {
  Program P = wl::buildPhased(wl::InputSize::Small, 1);
  vm::VMConfig Config = exp::jitOnlyConfig(P, vm::Personality::JikesRVM, 1);
  Config.Profiler.Kind = vm::ProfilerKind::CBS;
  Config.Profiler.CBS.Stride = 3;
  Config.Profiler.CBS.SamplesPerTick = 16;
  Config.Profiler.DecayEveryTicks = 8;
  Config.Profiler.DecayFactor = 0.8;
  // Arm the quality monitor; the phased workload's hot-set swap drops
  // the window overlap to ~66%, so 70% flags it as a phase shift.
  Config.Profiler.Quality.EveryTicks = 8;
  Config.Profiler.Quality.PhaseShiftOverlapPct = 70.0;

  aos::AOSConfig AC;
  AC.Deopt.Enabled = true;
  opt::NewJikesOracle Oracle;
  aos::AdaptiveSystem AOS(&Oracle, AC);
  vm::VirtualMachine VM(P, Config);
  VM.setClient(&AOS);
  EXPECT_EQ(VM.run(), vm::RunState::Finished) << VM.trapMessage();

  ASSERT_NE(AOS.deoptController(), nullptr);
  const aos::DeoptStats &S = AOS.deoptController()->stats();
  EXPECT_GE(VM.qualityMonitor()->phaseShiftCount(), 1u);
  EXPECT_GE(S.PhaseShiftDeopts, 1u)
      << "speculative code compiled before the shift must be invalidated";
  EXPECT_LE(S.PhaseShiftDeopts, S.Deopts);
  EXPECT_GE(S.Recompiles, 1u);
}

TEST(Deopt, ForcedStormAtEveryYieldpointPreservesSemantics) {
  // Latency scale 0: versions install at the very first taken
  // yieldpoint after the promotion decision — and the storm then
  // invalidates each one at the very next taken yieldpoint. The
  // harshest install/deopt interleaving the controller can produce.
  Program P = wl::buildJess(wl::InputSize::Small, 1);
  aos::DeoptConfig Deopt;
  Deopt.Enabled = true;
  Deopt.ForceStormForTesting = true;
  DeoptRun R = runWithDeopt(P, Deopt, /*LatencyScale=*/0);

  EXPECT_GE(R.Stats.Deopts, 1u) << "the storm never caught an install";
  EXPECT_EQ(R.Stats.Deopts, R.VmDeopts);
  EXPECT_GE(R.FramesDeopted, 1u)
      << "frames pinning invalidated versions must take the fallback path";
  EXPECT_EQ(R.Output, baselineOutput(P));
}

TEST(Deopt, StormDropsInFlightRecompilesAsStale) {
  // Zero modelled latency clusters enqueues, installs, and storm
  // invalidations onto the same ticks, so deopts land while promotion
  // requests for the same method are still queued — those requests were
  // decided against the plan the deopt just declared dead and must be
  // dropped, not installed. A high deopt cap keeps the repairs
  // speculative (conservative pins assume nothing and are exempt).
  Program P = wl::buildJess(wl::InputSize::Small, 1);
  aos::DeoptConfig Deopt;
  Deopt.Enabled = true;
  Deopt.ForceStormForTesting = true;
  Deopt.MaxDeoptsPerMethod = 1000;
  DeoptRun R = runWithDeopt(P, Deopt, /*LatencyScale=*/0);

  EXPECT_GE(R.Stats.Deopts, 1u);
  EXPECT_GE(R.Stats.StaleRequestsDropped, 1u)
      << "a deopt must drop the in-flight compile built on the dead plan";
  EXPECT_EQ(R.Output, baselineOutput(P));
}

TEST(Deopt, DeoptCapPinsMethodToConservativePlan) {
  Program P = wl::buildJess(wl::InputSize::Small, 1);
  aos::DeoptConfig Deopt;
  Deopt.Enabled = true;
  Deopt.ForceStormForTesting = true;
  Deopt.MaxDeoptsPerMethod = 1;
  DeoptRun R = runWithDeopt(P, Deopt, /*LatencyScale=*/0);

  EXPECT_GE(R.Stats.ConservativePins, 1u)
      << "one deopt must pin under MaxDeoptsPerMethod=1";
  EXPECT_EQ(R.Output, baselineOutput(P));
}

TEST(Deopt, DisabledControllerChangesNothing) {
  // Deopt off (the default): byte-identical to a run that predates the
  // subsystem entirely — no controller, no snapshots, no invalidations.
  Program P = wl::buildJess(wl::InputSize::Small, 1);
  aos::DeoptConfig Off; // Enabled = false
  DeoptRun Disabled = runWithDeopt(P, Off);
  EXPECT_EQ(Disabled.VmDeopts, 0u);
  EXPECT_EQ(Disabled.Stats.GuardChecks, 0u);

  vm::VMConfig Config = exp::jitOnlyConfig(P, vm::Personality::JikesRVM, 1);
  Config.Profiler.Kind = vm::ProfilerKind::CBS;
  Config.Profiler.CBS.Stride = 3;
  Config.Profiler.CBS.SamplesPerTick = 16;
  Config.Profiler.DecayEveryTicks = 4;
  Config.Profiler.DecayFactor = 0.5;
  Config.TimerPeriodCycles = 20'000;
  aos::AOSConfig AC;
  AC.CompileLatencyScale = 1.0;
  AC.Level1Samples = 2;
  AC.Level2Samples = 3;
  opt::NewJikesOracle Oracle;
  aos::AdaptiveSystem AOS(&Oracle, AC);
  vm::VirtualMachine VM(P, Config);
  VM.setClient(&AOS);
  EXPECT_EQ(VM.run(), vm::RunState::Finished);
  EXPECT_EQ(AOS.deoptController(), nullptr);
  EXPECT_EQ(VM.output(), Disabled.Output);
  EXPECT_EQ(VM.stats().Cycles, Disabled.Cycles);
}
