//===- experiments/Experiments.cpp - Experiment harness ----------------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//

#include "experiments/Experiments.h"

#include "opt/Compiler.h"
#include "opt/InlineOracle.h"
#include "profiling/OverlapMetric.h"
#include "profiling/ProfilerRegistry.h"
#include "support/ArgParser.h"
#include "support/Statistics.h"

#include <cstdlib>

using namespace cbs;
using namespace cbs::exp;

unsigned exp::envRuns(unsigned Default) {
  if (const char *Env = std::getenv("CBSVM_RUNS"))
    if (std::optional<uint64_t> V = support::parseWholeNumber(Env);
        V && *V >= 1 && *V <= 1000)
      return static_cast<unsigned>(*V);
  return Default;
}

void exp::applyJitOnly(const bc::Program &P, vm::VMConfig &Config) {
  Config.JITLevel = 0;
  // Safety net: accuracy runs must terminate. Generously above any
  // benchmark's large-input run time.
  Config.MaxCycles = 4'000'000'000ull;

  // Trivial inlining only (§6.2's "low level of optimization ... so
  // that trivial methods would be inlined, but all other calls
  // remain").
  auto Plan = std::make_shared<opt::InlinePlan>(
      opt::TrivialOracle().plan(P, prof::DCGSnapshot()));
  Config.CompileHook = opt::makeCompileHook(std::move(Plan));
}

vm::VMConfig exp::jitOnlyConfig(const bc::Program &P, vm::Personality Pers,
                                uint64_t Seed) {
  vm::VMConfig Config;
  Config.Pers = Pers;
  Config.Seed = Seed;
  applyJitOnly(P, Config);
  return Config;
}

PerfectProfile exp::runPerfect(const bc::Program &P, vm::Personality Pers,
                               uint64_t Seed) {
  RunSpec Spec{.P = &P, .Config = jitOnlyConfig(P, Pers, Seed)};
  prof::ProfilerRegistry::instance().configure("exhaustive",
                                               Spec.Config.Profiler);
  Run R(std::move(Spec));
  R.runToEnd("perfect run");

  vm::VirtualMachine &VM = R.vm();
  PerfectProfile Perfect;
  Perfect.DCG = VM.profile();
  Perfect.BaseCycles = VM.stats().Cycles;
  Perfect.Instructions = VM.stats().Instructions;
  Perfect.Calls = VM.stats().CallsExecuted;
  Perfect.MethodsExecuted = VM.methodsExecuted();
  Perfect.Output = VM.output();
  return Perfect;
}

AccuracyCell exp::measureAccuracy(const bc::Program &P, vm::Personality Pers,
                                  const vm::ProfilerOptions &Prof,
                                  const PerfectProfile &Perfect,
                                  uint64_t Seed) {
  RunSpec Spec{.P = &P, .Config = jitOnlyConfig(P, Pers, Seed)};
  Spec.Config.Profiler = Prof;
  Run R(std::move(Spec));
  R.runToEnd("profiled run");

  vm::VirtualMachine &VM = R.vm();
  AccuracyCell Cell;
  Cell.OverheadPct =
      100.0 *
      (static_cast<double>(VM.stats().Cycles) -
       static_cast<double>(Perfect.BaseCycles)) /
      static_cast<double>(Perfect.BaseCycles);
  Cell.AccuracyPct = prof::accuracy(VM.profile(), Perfect.DCG);
  Cell.SamplesTaken = VM.stats().SamplesTaken;
  return Cell;
}

AccuracyCell exp::measureAccuracyMedian(const wl::WorkloadInfo &W,
                                        wl::InputSize Size,
                                        vm::Personality Pers,
                                        const vm::ProfilerOptions &Prof,
                                        unsigned Runs, uint64_t BaseSeed,
                                        const ParallelConfig &Par) {
  std::vector<double> Overheads, Accuracies;
  uint64_t Samples = 0;

  // One task per seed. Each task writes only its own slot of Cells (the
  // disjoint per-index slot the ownership contract allows); the commit
  // phase folds the slots into the shared accumulators in seed order.
  std::vector<AccuracyCell> Cells(Runs);
  ParallelRunner Runner(Par);
  Runner.run(
      Runs,
      [&](ParallelRunner::TaskContext &Ctx) {
        uint64_t Seed = BaseSeed + Ctx.Index;
        bc::Program P = W.Build(Size, Seed);
        PerfectProfile Perfect = runPerfect(P, Pers, Seed);
        Cells[Ctx.Index] = measureAccuracy(P, Pers, Prof, Perfect, Seed);
        Ctx.Metrics.counter("exp.vm_runs") += 2;
        Ctx.Metrics.counter("exp.samples_taken") +=
            Cells[Ctx.Index].SamplesTaken;
      },
      [&](ParallelRunner::TaskContext &Ctx) {
        const AccuracyCell &Cell = Cells[Ctx.Index];
        Overheads.push_back(Cell.OverheadPct);
        Accuracies.push_back(Cell.AccuracyPct);
        Samples += Cell.SamplesTaken;
      });

  AccuracyCell Median;
  Median.OverheadPct = median(Overheads);
  Median.AccuracyPct = median(Accuracies);
  Median.SamplesTaken = Samples / std::max(1u, Runs);
  return Median;
}

SweepResult exp::runSweep(
    vm::Personality Pers,
    const std::vector<const wl::WorkloadInfo *> &Workloads,
    wl::InputSize Size, std::vector<uint32_t> Strides,
    std::vector<uint32_t> SamplesPerTick, unsigned Runs, uint64_t BaseSeed,
    const ParallelConfig &Par) {
  SweepResult Result;
  Result.Strides = std::move(Strides);
  Result.SamplesPerTick = std::move(SamplesPerTick);
  Result.Cells.assign(Result.SamplesPerTick.size(),
                      std::vector<AccuracyCell>(Result.Strides.size()));

  // Per-cell, per-seed accumulation of the benchmark averages.
  size_t NumCells = Result.SamplesPerTick.size() * Result.Strides.size();
  std::vector<std::vector<double>> OverheadBySeed(NumCells),
      AccuracyBySeed(NumCells);

  // One task per (seed, workload) pair, seed-major so index-order
  // commits reproduce the serial accumulation order exactly: within a
  // seed, workloads fold into the running sums in suite order, and the
  // per-seed averages are pushed when the seed's last workload commits.
  size_t TasksPerSeed = Workloads.size();
  std::vector<std::vector<AccuracyCell>> TaskCells(Runs * TasksPerSeed);
  std::vector<double> OverheadSum(NumCells, 0), AccuracySum(NumCells, 0);

  ParallelRunner Runner(Par);
  Runner.run(
      Runs * TasksPerSeed,
      [&](ParallelRunner::TaskContext &Ctx) {
        uint64_t Seed = BaseSeed + Ctx.Index / TasksPerSeed;
        const wl::WorkloadInfo *W = Workloads[Ctx.Index % TasksPerSeed];
        bc::Program P = W->Build(Size, Seed);
        PerfectProfile Perfect = runPerfect(P, Pers, Seed);
        std::vector<AccuracyCell> &Cells = TaskCells[Ctx.Index];
        Cells.resize(NumCells);
        for (size_t SI = 0; SI != Result.SamplesPerTick.size(); ++SI) {
          for (size_t TI = 0; TI != Result.Strides.size(); ++TI) {
            vm::ProfilerOptions Prof;
            Prof.Kind = vm::ProfilerKind::CBS;
            Prof.CBS.Stride = Result.Strides[TI];
            Prof.CBS.SamplesPerTick = Result.SamplesPerTick[SI];
            Cells[SI * Result.Strides.size() + TI] =
                measureAccuracy(P, Pers, Prof, Perfect, Seed);
          }
        }
        Ctx.Metrics.counter("exp.vm_runs") += 1 + NumCells;
        for (const AccuracyCell &Cell : Cells)
          Ctx.Metrics.counter("exp.samples_taken") += Cell.SamplesTaken;
      },
      [&](ParallelRunner::TaskContext &Ctx) {
        std::vector<AccuracyCell> &Cells = TaskCells[Ctx.Index];
        for (size_t Idx = 0; Idx != NumCells; ++Idx) {
          OverheadSum[Idx] += Cells[Idx].OverheadPct;
          AccuracySum[Idx] += Cells[Idx].AccuracyPct;
        }
        Cells.clear();
        Cells.shrink_to_fit();
        if (Ctx.Index % TasksPerSeed == TasksPerSeed - 1) {
          for (size_t Idx = 0; Idx != NumCells; ++Idx) {
            OverheadBySeed[Idx].push_back(
                OverheadSum[Idx] / static_cast<double>(Workloads.size()));
            AccuracyBySeed[Idx].push_back(
                AccuracySum[Idx] / static_cast<double>(Workloads.size()));
          }
          OverheadSum.assign(NumCells, 0);
          AccuracySum.assign(NumCells, 0);
        }
      });

  for (size_t SI = 0; SI != Result.SamplesPerTick.size(); ++SI)
    for (size_t TI = 0; TI != Result.Strides.size(); ++TI) {
      size_t Idx = SI * Result.Strides.size() + TI;
      Result.Cells[SI][TI].OverheadPct = median(OverheadBySeed[Idx]);
      Result.Cells[SI][TI].AccuracyPct = median(AccuracyBySeed[Idx]);
    }
  return Result;
}

vm::ProfilerOptions exp::chosenCBS(vm::Personality Pers) {
  vm::ProfilerOptions Prof;
  prof::ProfilerRegistry::instance().configure("cbs", Prof);
  Prof.CBS.Stride = Pers == vm::Personality::JikesRVM ? 3 : 7;
  Prof.CBS.SamplesPerTick = 16;
  return Prof;
}

vm::ProfilerOptions exp::baseProfiler(vm::Personality Pers) {
  vm::ProfilerOptions Prof;
  const prof::ProfilerRegistry &Registry = prof::ProfilerRegistry::instance();
  if (Pers == vm::Personality::JikesRVM) {
    // The Jikes RVM base samples on the timer tick.
    Registry.configure("timer", Prof);
  } else {
    // The J9 base is modelled as a degenerate one-sample CBS window.
    Registry.configure("cbs", Prof);
    Prof.CBS.Stride = 1;
    Prof.CBS.SamplesPerTick = 1;
  }
  return Prof;
}

ThroughputResult exp::measureThroughput(const bc::Program &P,
                                        const SpeedupOptions &Options) {
  RunSpec Spec{.P = &P,
               .Config = jitOnlyConfig(P, Options.Pers, Options.Seed),
               .AOS = Options.AOS,
               .Oracle = Options.Oracle};
  Spec.Config.Profiler = Options.Prof;
  Spec.Config.MaxCycles = UINT64_MAX;
  Spec.Config.Trace = Options.Trace;
  Run R(std::move(Spec));
  vm::VirtualMachine &VM = R.vm();

  R.runToEnd("throughput warmup", Options.WarmupCycles);
  uint64_t CyclesBefore = VM.stats().Cycles;
  uint64_t InstrBefore = VM.stats().Instructions;
  R.runToEnd("throughput measure", Options.MeasureCycles);

  ThroughputResult Result;
  uint64_t DeltaCycles = VM.stats().Cycles - CyclesBefore;
  uint64_t DeltaInstr = VM.stats().Instructions - InstrBefore;
  Result.Throughput = DeltaCycles == 0
                          ? 0.0
                          : static_cast<double>(DeltaInstr) /
                                static_cast<double>(DeltaCycles);
  Result.CompileCycles = VM.stats().CompileCycles;
  Result.Recompilations = R.adaptive()->stats().Recompilations;
  Result.Stats = VM.stats();
  return Result;
}

double exp::speedupPercent(const ThroughputResult &Test,
                           const ThroughputResult &Base) {
  if (Base.Throughput == 0)
    return 0;
  return 100.0 * (Test.Throughput / Base.Throughput - 1.0);
}

exp::WarmStartRun
exp::runWarmStart(const bc::Program &P, vm::Personality Pers,
                  std::shared_ptr<const prof::DCGSnapshot> Warm, uint64_t Seed,
                  uint32_t CompileJobs) {
  RunSpec Spec{.P = &P,
               .Config = jitOnlyConfig(P, Pers, Seed),
               .AOS = aos::AOSConfig()};
  Spec.Config.Profiler = chosenCBS(Pers);
  Spec.AOS->CompileJobs = CompileJobs;
  Spec.AOS->WarmStart.Profile = std::move(Warm);
  Run R(std::move(Spec));
  R.runToEnd("warm-start run");

  const aos::AOSStats &Stats = R.adaptive()->stats();
  WarmStartRun W;
  W.Cycles = R.vm().cycles();
  W.FirstInstallCycle = Stats.FirstInstallCycle;
  W.Installs = Stats.QueueInstalls;
  W.WarmEnqueued = Stats.WarmEnqueued;
  W.WarmInstalls = Stats.WarmInstalls;
  W.Profile = R.vm().profile();
  return W;
}
