//===- tests/VMRuntimeTest.cpp - runtime services tests ------------------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
//
// Timer ticks, yieldpoints, the two VM personalities, GC servicing,
// green-thread scheduling, and the profiler wiring inside the runtime
// services.
//
//===----------------------------------------------------------------------===//

#include "bytecode/Builder.h"
#include "bytecode/Verifier.h"
#include "vm/VirtualMachine.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <functional>

using namespace cbs;
using namespace cbs::bc;

namespace {

/// A program whose main loop calls leaf() repeatedly: Iterations calls,
/// one Work stretch per iteration.
Program callLoop(int64_t Iterations, int32_t WorkPerIter) {
  ProgramBuilder PB;
  MethodId Leaf = PB.declareStatic("leaf", {ValKind::Int},
                                   /*HasResult=*/true);
  {
    MethodBuilder MB = PB.defineMethod(Leaf);
    MB.work(5).iload(0).iret();
    MB.finish();
  }
  MethodId Main = PB.declareStatic("main");
  {
    MethodBuilder MB = PB.defineMethod(Main);
    MB.iconst(0).istore(1);
    MB.iconst(Iterations).istore(0);
    Label Head = MB.newLabel(), Exit = MB.newLabel();
    MB.bind(Head).iload(0).ifLe(Exit);
    if (WorkPerIter > 0)
      MB.work(WorkPerIter);
    MB.iload(0).invokeStatic(Leaf).istore(1);
    MB.iinc(0, -1).jump(Head);
    MB.bind(Exit).iload(1).print();
    MB.finish();
  }
  Program P = PB.finish(Main);
  EXPECT_TRUE(verifyProgram(P).ok());
  return P;
}

} // namespace

TEST(Runtime, TimerTicksMatchPeriod) {
  Program P = callLoop(50'000, 20);
  vm::VMConfig Config;
  Config.TimerPeriodCycles = 100'000;
  vm::VirtualMachine VM(P, Config);
  VM.run();
  uint64_t ExpectedTicks = VM.stats().Cycles / Config.TimerPeriodCycles;
  EXPECT_NEAR(static_cast<double>(VM.stats().TimerTicks),
              static_cast<double>(ExpectedTicks), 2.0);
}

TEST(Runtime, NoProfilerMeansNoSamples) {
  Program P = callLoop(20'000, 20);
  vm::VMConfig Config;
  vm::VirtualMachine VM(P, Config);
  VM.run();
  EXPECT_EQ(VM.stats().SamplesTaken, 0u);
  EXPECT_TRUE(VM.profile().empty());
  // Ticks were still serviced through taken yieldpoints.
  EXPECT_GT(VM.stats().TimerTicks, 0u);
  EXPECT_GE(VM.stats().YieldpointsTaken, VM.stats().TimerTicks);
}

TEST(Runtime, TimerProfilerTakesAtMostOneSamplePerTick) {
  Program P = callLoop(60'000, 20);
  vm::VMConfig Config;
  Config.Profiler.Kind = vm::ProfilerKind::Timer;
  vm::VirtualMachine VM(P, Config);
  VM.run();
  EXPECT_GT(VM.stats().SamplesTaken, 0u);
  EXPECT_LE(VM.stats().SamplesTaken, VM.stats().TimerTicks);
}

TEST(Runtime, CBSTakesSamplesPerTick) {
  Program P = callLoop(120'000, 10);
  vm::VMConfig Config;
  Config.Profiler.Kind = vm::ProfilerKind::CBS;
  Config.Profiler.CBS.Stride = 2;
  Config.Profiler.CBS.SamplesPerTick = 8;
  vm::VirtualMachine VM(P, Config);
  VM.run();
  // Roughly SamplesPerTick per tick (call density is high enough).
  double PerTick = static_cast<double>(VM.stats().SamplesTaken) /
                   static_cast<double>(VM.stats().TimerTicks);
  EXPECT_GT(PerTick, 6.0);
  EXPECT_LE(PerTick, 8.5);
}

TEST(Runtime, CBSSamplesAreBoundedByCallCount) {
  Program P = callLoop(5'000, 0);
  vm::VMConfig Config;
  Config.Profiler.Kind = vm::ProfilerKind::CBS;
  Config.Profiler.CBS.Stride = 1;
  Config.Profiler.CBS.SamplesPerTick = 100000; // Saturating window.
  vm::VirtualMachine VM(P, Config);
  VM.run();
  // In the Jikes personality both prologues and epilogues are events.
  EXPECT_LE(VM.stats().SamplesTaken, 2 * VM.stats().CallsExecuted + 2);
}

TEST(Runtime, ExhaustiveProfilerMatchesCallCounts) {
  Program P = callLoop(10'000, 10);
  vm::VMConfig Config;
  Config.Profiler.Kind = vm::ProfilerKind::Exhaustive;
  Config.Profiler.ChargeExhaustiveCounters = false;
  vm::VirtualMachine VM(P, Config);
  VM.run();
  EXPECT_EQ(VM.profile().totalWeight(), VM.stats().CallsExecuted);
}

TEST(Runtime, ExhaustiveCounterCostShowsUp) {
  Program P = callLoop(20'000, 10);
  auto Run = [&](bool Charge) {
    vm::VMConfig Config;
    Config.Profiler.Kind = vm::ProfilerKind::Exhaustive;
    Config.Profiler.ChargeExhaustiveCounters = Charge;
    vm::VirtualMachine VM(P, Config);
    VM.run();
    return VM.stats().Cycles;
  };
  uint64_t Free = Run(false), Charged = Run(true);
  EXPECT_GT(Charged, Free);
  // 8 cycles per call on this workload is a >5% slowdown.
  EXPECT_GT(static_cast<double>(Charged - Free) / Free, 0.05);
}

TEST(Runtime, ExplicitEntryCheckAblationCosts) {
  Program P = callLoop(20'000, 10);
  auto Run = [&](bool Explicit) {
    vm::VMConfig Config;
    Config.ExplicitEntryCheck = Explicit;
    vm::VirtualMachine VM(P, Config);
    VM.run();
    return VM.stats().Cycles;
  };
  uint64_t Overloaded = Run(false), Explicit = Run(true);
  EXPECT_GT(Explicit, Overloaded)
      << "a VM without an overloadable check pays per entry (§4)";
}

TEST(Runtime, GCServicedThroughYieldpoints) {
  // Allocate heavily; the GC request must be serviced and charged.
  ProgramBuilder PB;
  ClassId C = PB.addClass("C", InvalidClassId, 8);
  MethodId Main = PB.declareStatic("main");
  {
    MethodBuilder MB = PB.defineMethod(Main);
    MB.iconst(0).istore(1);
    MB.iconst(30'000).istore(0);
    Label Head = MB.newLabel(), Exit = MB.newLabel();
    MB.bind(Head).iload(0).ifLe(Exit);
    MB.newObject(C).astore(2);
    MB.aload(2).iload(0).putField(0);
    MB.iinc(0, -1).jump(Head);
    MB.bind(Exit).iload(1).print();
    MB.finish();
  }
  Program P = PB.finish(Main);
  vm::VMConfig Config;
  Config.GCThresholdBytes = 64 * 1024;
  vm::VirtualMachine VM(P, Config);
  VM.run();
  // 30k objects * 80 bytes ≈ 2.4MB -> ~37 GCs at 64KB.
  EXPECT_GT(VM.stats().GCCount, 20u);
  EXPECT_LT(VM.stats().GCCount, 60u);
}

TEST(Runtime, SpawnedThreadsInterleave) {
  ProgramBuilder PB;
  MethodId Worker = PB.declareStatic("worker");
  {
    MethodBuilder MB = PB.defineMethod(Worker);
    MB.iconst(0).istore(1);
    MB.iconst(20'000).istore(0);
    Label Head = MB.newLabel(), Exit = MB.newLabel();
    MB.bind(Head).iload(0).ifLe(Exit);
    MB.work(40).iinc(0, -1).jump(Head);
    MB.bind(Exit).iconst(111).print();
    MB.finish();
  }
  MethodId Main = PB.declareStatic("main");
  {
    MethodBuilder MB = PB.defineMethod(Main);
    MB.spawn(Worker).spawn(Worker);
    MB.iconst(222).print();
    MB.finish();
  }
  Program P = PB.finish(Main);
  vm::VMConfig Config;
  Config.TimerPeriodCycles = 50'000;
  vm::VirtualMachine VM(P, Config);
  EXPECT_EQ(VM.run(), vm::RunState::Finished);
  // All three threads completed (two 111 prints + one 222).
  ASSERT_EQ(VM.output().size(), 3u);
  EXPECT_EQ(VM.stats().ThreadsSpawned, 3u);
  EXPECT_GT(VM.stats().ThreadSwitches, 0u);
}

TEST(Runtime, PersonalitiesDifferInEpilogueEvents) {
  // Jikes samples at prologues and epilogues; J9 at entries only. With
  // a saturating CBS window, Jikes therefore sees ~2x the events.
  Program P = callLoop(30'000, 5);
  auto Samples = [&](vm::Personality Pers) {
    vm::VMConfig Config;
    Config.Pers = Pers;
    Config.Profiler.Kind = vm::ProfilerKind::CBS;
    Config.Profiler.CBS.Stride = 1;
    Config.Profiler.CBS.SamplesPerTick = 1000000;
    vm::VirtualMachine VM(P, Config);
    VM.run();
    return VM.stats().SamplesTaken;
  };
  uint64_t Jikes = Samples(vm::Personality::JikesRVM);
  uint64_t J9 = Samples(vm::Personality::J9);
  EXPECT_GT(Jikes, J9 + J9 / 2);
}

TEST(Runtime, CompileCyclesAccountedOnFirstTouch) {
  Program P = callLoop(1'000, 5);
  vm::VMConfig Config;
  vm::VirtualMachine VM(P, Config);
  VM.run();
  EXPECT_GT(VM.stats().CompileCycles, 0u);
  EXPECT_EQ(VM.codeCache().numCompiles(), 2u); // main + leaf
  EXPECT_EQ(VM.codeCache().numRecompiles(), 0u);
}

TEST(Runtime, SeedChangesCBSSampleChoice) {
  Program P = callLoop(40'000, 25);
  auto Profile = [&](uint64_t Seed) {
    vm::VMConfig Config;
    Config.Seed = Seed;
    Config.Profiler.Kind = vm::ProfilerKind::CBS;
    Config.Profiler.CBS.Stride = 13;
    Config.Profiler.CBS.SamplesPerTick = 2;
    vm::VirtualMachine VM(P, Config);
    VM.run();
    return std::pair(VM.stats().SamplesTaken, VM.output());
  };
  auto A = Profile(1), B = Profile(2);
  // Program output identical (the profiler never perturbs semantics).
  EXPECT_EQ(A.second, B.second);
}
