//===- tests/ExperimentTest.cpp - experiment harness tests ---------------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
//
// End-to-end checks that the experiment harness reproduces the paper's
// qualitative results: base accuracy is poor, CBS accuracy is high at
// low overhead, accuracy grows with Samples, overhead grows with
// Samples, small inputs profile worse than large ones, and the
// steady-state speedup machinery behaves.
//
//===----------------------------------------------------------------------===//

#include "bytecode/Builder.h"
#include "experiments/Experiments.h"

#include <gtest/gtest.h>

using namespace cbs;
using namespace cbs::exp;

namespace {

const wl::WorkloadInfo &jess() { return *wl::findWorkload("jess"); }

} // namespace

TEST(Accuracy, PerfectRunIsStable) {
  bc::Program P = jess().Build(wl::InputSize::Small, 1);
  PerfectProfile A = runPerfect(P, vm::Personality::JikesRVM, 1);
  PerfectProfile B = runPerfect(P, vm::Personality::JikesRVM, 1);
  EXPECT_EQ(A.BaseCycles, B.BaseCycles);
  EXPECT_EQ(A.DCG.totalWeight(), B.DCG.totalWeight());
  EXPECT_EQ(A.Output, B.Output);
  EXPECT_EQ(A.DCG.totalWeight(), A.Calls);
}

TEST(Accuracy, ExhaustiveProfilerScoresPerfect) {
  bc::Program P = jess().Build(wl::InputSize::Small, 1);
  PerfectProfile Perfect = runPerfect(P, vm::Personality::JikesRVM, 1);
  vm::ProfilerOptions Ex;
  Ex.Kind = vm::ProfilerKind::Exhaustive;
  Ex.ChargeExhaustiveCounters = false;
  AccuracyCell Cell =
      measureAccuracy(P, vm::Personality::JikesRVM, Ex, Perfect, 1);
  EXPECT_NEAR(Cell.AccuracyPct, 100.0, 0.01);
  EXPECT_NEAR(Cell.OverheadPct, 0.0, 0.01);
}

TEST(Accuracy, CBSBeatsTimerBase) {
  for (vm::Personality Pers :
       {vm::Personality::JikesRVM, vm::Personality::J9}) {
    bc::Program P = jess().Build(wl::InputSize::Small, 1);
    PerfectProfile Perfect = runPerfect(P, Pers, 1);
    AccuracyCell Base =
        measureAccuracy(P, Pers, baseProfiler(Pers), Perfect, 1);
    AccuracyCell CBS = measureAccuracy(P, Pers, chosenCBS(Pers), Perfect, 1);
    EXPECT_GT(CBS.AccuracyPct, Base.AccuracyPct + 10.0)
        << "personality " << static_cast<int>(Pers);
    EXPECT_LT(CBS.OverheadPct, 1.5);
  }
}

TEST(Accuracy, MoreSamplesMoreAccuracyMoreOverhead) {
  bc::Program P = jess().Build(wl::InputSize::Small, 1);
  PerfectProfile Perfect = runPerfect(P, vm::Personality::JikesRVM, 1);
  double PrevAcc = -1, PrevOvh = -1;
  for (uint32_t Samples : {1u, 16u, 256u}) {
    vm::ProfilerOptions Prof;
    Prof.Kind = vm::ProfilerKind::CBS;
    Prof.CBS.Stride = 3;
    Prof.CBS.SamplesPerTick = Samples;
    AccuracyCell Cell =
        measureAccuracy(P, vm::Personality::JikesRVM, Prof, Perfect, 1);
    EXPECT_GT(Cell.AccuracyPct, PrevAcc - 1.0);
    EXPECT_GT(Cell.OverheadPct, PrevOvh);
    PrevAcc = Cell.AccuracyPct;
    PrevOvh = Cell.OverheadPct;
  }
}

TEST(Accuracy, LargeInputsProfileBetterThanSmall) {
  // More ticks -> more samples -> higher accuracy (§6.2's small/large
  // split).
  vm::ProfilerOptions Prof = chosenCBS(vm::Personality::JikesRVM);
  AccuracyCell Small = measureAccuracyMedian(
      jess(), wl::InputSize::Small, vm::Personality::JikesRVM, Prof, 1, 1);
  AccuracyCell Large = measureAccuracyMedian(
      jess(), wl::InputSize::Large, vm::Personality::JikesRVM, Prof, 1, 1);
  EXPECT_GT(Large.AccuracyPct, Small.AccuracyPct);
}

TEST(Accuracy, MedianOverSeedsIsBracketed) {
  vm::ProfilerOptions Prof = chosenCBS(vm::Personality::JikesRVM);
  AccuracyCell Median = measureAccuracyMedian(
      jess(), wl::InputSize::Small, vm::Personality::JikesRVM, Prof, 3, 1);
  EXPECT_GT(Median.AccuracyPct, 50.0);
  EXPECT_LE(Median.AccuracyPct, 100.0);
}

TEST(Sweep, TinyGridHasPaperShape) {
  std::vector<const wl::WorkloadInfo *> Workloads = {&jess()};
  SweepResult R =
      runSweep(vm::Personality::JikesRVM, Workloads, wl::InputSize::Small,
               {1, 7}, {1, 32}, /*Runs=*/1, /*BaseSeed=*/1);
  ASSERT_EQ(R.Cells.size(), 2u);
  ASSERT_EQ(R.Cells[0].size(), 2u);
  // Accuracy grows down the samples axis.
  EXPECT_GT(R.Cells[1][0].AccuracyPct, R.Cells[0][0].AccuracyPct);
  // Overhead grows with samples.
  EXPECT_GT(R.Cells[1][0].OverheadPct, R.Cells[0][0].OverheadPct - 0.01);
  // The (1,1) corner is the poor base configuration.
  EXPECT_LT(R.Cells[0][0].AccuracyPct, 75.0);
}

TEST(Profilers, ChosenConfigsMatchPaper) {
  vm::ProfilerOptions Jikes = chosenCBS(vm::Personality::JikesRVM);
  EXPECT_EQ(Jikes.CBS.Stride, 3u);
  vm::ProfilerOptions J9 = chosenCBS(vm::Personality::J9);
  EXPECT_EQ(J9.CBS.Stride, 7u);
  EXPECT_EQ(baseProfiler(vm::Personality::JikesRVM).Kind,
            vm::ProfilerKind::Timer);
  EXPECT_EQ(baseProfiler(vm::Personality::J9).Kind, vm::ProfilerKind::CBS);
  EXPECT_EQ(baseProfiler(vm::Personality::J9).CBS.SamplesPerTick, 1u);
}

TEST(Speedup, ThroughputMeasurementIsPositiveAndStable) {
  bc::Program P = jess().Build(wl::InputSize::Steady, 1);
  SpeedupOptions Opts;
  Opts.WarmupCycles = 4'000'000;
  Opts.MeasureCycles = 8'000'000;
  ThroughputResult A = measureThroughput(P, Opts);
  ThroughputResult B = measureThroughput(P, Opts);
  EXPECT_GT(A.Throughput, 0.0);
  EXPECT_DOUBLE_EQ(A.Throughput, B.Throughput) << "deterministic";
}

TEST(Speedup, ProfileDirectedInliningBeatsNoProfile) {
  bc::Program P = wl::findWorkload("mtrt")->Build(wl::InputSize::Steady, 1);
  opt::NewJikesOracle Oracle;

  SpeedupOptions Base;
  Base.WarmupCycles = 8'000'000;
  Base.MeasureCycles = 10'000'000;
  Base.Oracle = nullptr;
  Base.Prof.Kind = vm::ProfilerKind::None;
  ThroughputResult BaseResult = measureThroughput(P, Base);

  SpeedupOptions CBS = Base;
  CBS.Prof = chosenCBS(vm::Personality::JikesRVM);
  CBS.Oracle = &Oracle;
  ThroughputResult CBSResult = measureThroughput(P, CBS);

  EXPECT_GT(speedupPercent(CBSResult, BaseResult), 1.0);
  EXPECT_GT(CBSResult.Recompilations, 0u);
}

TEST(Speedup, J9CBSBeatsTimerOnlyOnAverage) {
  // The Figure 5 (right) shape: with the J9 oracle, timer-quality
  // profiles suppress inlining at sites that are actually warm; CBS
  // suffers far less. Individual benchmarks are noisy, so assert the
  // average over a few of them, as the paper's figure does.
  opt::J9Oracle Dyn;
  opt::J9Oracle::Params SP;
  SP.UseDynamic = false;
  opt::J9Oracle Static(SP);

  double TimerSum = 0, CBSSum = 0;
  for (const char *Name : {"jess", "compress", "xerces"}) {
    bc::Program P =
        wl::findWorkload(Name)->Build(wl::InputSize::Steady, 1);
    SpeedupOptions Base;
    Base.Pers = vm::Personality::J9;
    Base.Oracle = &Static;
    Base.Prof.Kind = vm::ProfilerKind::None;
    ThroughputResult StaticResult = measureThroughput(P, Base);

    SpeedupOptions Timer = Base;
    Timer.Prof = baseProfiler(vm::Personality::J9);
    Timer.Oracle = &Dyn;
    TimerSum += speedupPercent(measureThroughput(P, Timer), StaticResult);

    SpeedupOptions CBS = Base;
    CBS.Prof = chosenCBS(vm::Personality::J9);
    CBS.Oracle = &Dyn;
    CBSSum += speedupPercent(measureThroughput(P, CBS), StaticResult);
  }
  EXPECT_GT(CBSSum, TimerSum);
}

TEST(Speedup, DynamicHeuristicsReduceCompileCost) {
  // §6.3: J9's dynamic heuristics reduce the total amount of inlining
  // and therefore compilation time. J9 compiles every executed method,
  // so the faithful comparison is whole-program compile cost under the
  // static-only plan vs the dynamic plan built from a mature profile.
  bc::Program P = wl::findWorkload("xerces")->Build(wl::InputSize::Small, 2);
  opt::J9Oracle Dyn;
  opt::J9Oracle::Params SP;
  SP.UseDynamic = false;
  opt::J9Oracle Static(SP);

  vm::VMConfig Config = jitOnlyConfig(P, vm::Personality::J9, 1);
  Config.Profiler = chosenCBS(vm::Personality::J9);
  vm::VirtualMachine VM(P, Config);
  ASSERT_EQ(VM.run(), vm::RunState::Finished);

  auto TotalCompile = [&](const opt::InlinePlan &Plan) {
    uint64_t Total = 0;
    for (bc::MethodId M = 0; M != P.numMethods(); ++M)
      Total += opt::compileMethod(P, M, 2, Plan).CompileCostCycles;
    return Total;
  };
  uint64_t StaticCost =
      TotalCompile(Static.plan(P, prof::DCGSnapshot()));
  uint64_t DynCost = TotalCompile(Dyn.plan(P, VM.profile()));
  EXPECT_LT(DynCost, StaticCost)
      << "dynamic heuristics must reduce total inlining/compile cost";
}

TEST(Harness, EnvRunsDefaultsWhenUnset) {
  unsetenv("CBSVM_RUNS");
  EXPECT_EQ(envRuns(5), 5u);
  setenv("CBSVM_RUNS", "3", 1);
  EXPECT_EQ(envRuns(5), 3u);
  // Only a whole decimal number counts: "4x" is not 4, " 3" is not 3.
  for (const char *Bad : {"garbage", "4x", " 3", "0", "1001"}) {
    setenv("CBSVM_RUNS", Bad, 1);
    EXPECT_EQ(envRuns(5), 5u) << "CBSVM_RUNS='" << Bad << "'";
  }
  unsetenv("CBSVM_RUNS");
}

TEST(Harness, RunToEndAbortsOnTrapWithTheCallersLabel) {
  bc::ProgramBuilder PB;
  bc::MethodId Main = PB.declareStatic("main");
  {
    bc::MethodBuilder MB = PB.defineMethod(Main);
    MB.iconst(1).iconst(0).idiv().print();
    MB.finish();
  }
  bc::Program P = PB.finish(Main);
  EXPECT_DEATH(exp::Run(RunSpec{.P = &P}).runToEnd("probe"), "probe trapped: ");
}
