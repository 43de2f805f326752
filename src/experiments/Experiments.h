//===- experiments/Experiments.h - Experiment harness -----------*- C++ -*-===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measurement harness behind every table and figure:
///
///  - Accuracy/overhead (§6.2, Tables 2 and 3): run the program once
///    with the free exhaustive profiler — that run yields both the
///    perfect DCG and the baseline cycle count — then once per profiler
///    configuration; overhead is the cycle ratio, accuracy the overlap
///    with the perfect profile. "Median of 10 runs" becomes median over
///    seeds (each seed perturbs workload constants and CBS initial-skip
///    randomization).
///  - Steady-state inlining speedup (§6.3, Figure 5): run the adaptive
///    VM, discard a warmup window, measure modelled
///    instructions-per-cycle over a measurement window (the paper's
///    "second minute"), and compare throughputs across profiler/oracle
///    configurations.
///
//===----------------------------------------------------------------------===//

#ifndef CBSVM_EXPERIMENTS_EXPERIMENTS_H
#define CBSVM_EXPERIMENTS_EXPERIMENTS_H

#include "experiments/ParallelRunner.h"
#include "experiments/Run.h"
#include "workloads/Workloads.h"

#include <memory>

namespace cbs::exp {

/// Experiment scale from the environment: CBSVM_RUNS overrides the
/// number of per-configuration repetitions (default \p Default).
unsigned envRuns(unsigned Default);

/// A JIT-only VM configuration as in §6.2: all methods compiled at
/// level 0 on first execution with trivial inlining only, adaptive
/// optimization off.
vm::VMConfig jitOnlyConfig(const bc::Program &P, vm::Personality Pers,
                           uint64_t Seed);

/// Layers the JIT-only experiment pipeline (termination ceiling +
/// trivial-inline compile hook) onto an existing \p Config — e.g. one
/// built by vm::VMConfig::fromArgs. jitOnlyConfig is this applied to a
/// default config.
void applyJitOnly(const bc::Program &P, vm::VMConfig &Config);

/// The exhaustive ground-truth run: perfect DCG plus baseline cycles.
struct PerfectProfile {
  prof::DCGSnapshot DCG;
  uint64_t BaseCycles = 0;
  uint64_t Instructions = 0;
  uint64_t Calls = 0;
  size_t MethodsExecuted = 0;
  std::vector<int64_t> Output;
};

PerfectProfile runPerfect(const bc::Program &P, vm::Personality Pers,
                          uint64_t Seed);

struct AccuracyCell {
  double OverheadPct = 0;
  double AccuracyPct = 0;
  uint64_t SamplesTaken = 0;
};

/// One profiled run against a previously measured perfect profile.
AccuracyCell measureAccuracy(const bc::Program &P, vm::Personality Pers,
                             const vm::ProfilerOptions &Prof,
                             const PerfectProfile &Perfect, uint64_t Seed);

/// Median-over-seeds accuracy/overhead for one workload+configuration.
/// Seeds fan out across \p Par's worker pool (one task per seed);
/// results commit in seed order, so every statistic is byte-identical
/// to the serial schedule at any job count.
AccuracyCell measureAccuracyMedian(const wl::WorkloadInfo &W,
                                   wl::InputSize Size, vm::Personality Pers,
                                   const vm::ProfilerOptions &Prof,
                                   unsigned Runs, uint64_t BaseSeed,
                                   const ParallelConfig &Par = {});

/// The Table 2 grid: overhead/accuracy per (Samples, Stride) cell,
/// averaged over \p Workloads, median over \p Runs seeds.
struct SweepResult {
  std::vector<uint32_t> Strides;
  std::vector<uint32_t> SamplesPerTick;
  /// Cells[sampleIdx][strideIdx].
  std::vector<std::vector<AccuracyCell>> Cells;
};

/// The grid fans out across \p Par's worker pool as one task per
/// (seed, workload) pair — each task is a pure function of its grid
/// index — and commits in grid order, so the result (including every
/// floating-point accumulation) is byte-identical to the serial
/// schedule at any job count.
SweepResult runSweep(vm::Personality Pers,
                     const std::vector<const wl::WorkloadInfo *> &Workloads,
                     wl::InputSize Size, std::vector<uint32_t> Strides,
                     std::vector<uint32_t> SamplesPerTick, unsigned Runs,
                     uint64_t BaseSeed, const ParallelConfig &Par = {});

/// The paper's chosen "knee" CBS configurations (Table 3 / Figure 5):
/// Stride=3, Samples=16 for the Jikes RVM personality and Stride=7,
/// Samples=16 for J9.
vm::ProfilerOptions chosenCBS(vm::Personality Pers);
/// The base profiler each personality is compared against: Jikes RVM's
/// timer sampler, and CBS(1,1) for J9 (§6.2: "J9 does not normally use
/// a timer-based call graph profiler").
vm::ProfilerOptions baseProfiler(vm::Personality Pers);

//===----------------------------------------------------------------------===//
// Steady-state inlining speedup (Figure 5)
//===----------------------------------------------------------------------===//

struct SpeedupOptions {
  vm::Personality Pers = vm::Personality::JikesRVM;
  vm::ProfilerOptions Prof;
  /// Oracle driving recompilation inline plans; null = trivial plans
  /// only (no profile-directed inlining).
  const opt::InlineOracle *Oracle = nullptr;
  aos::AOSConfig AOS;
  uint64_t WarmupCycles = 24'000'000;
  uint64_t MeasureCycles = 24'000'000;
  uint64_t Seed = 1;
  /// Optional trace sink installed on the VM (non-owning; may be null).
  tel::TraceSink *Trace = nullptr;
};

struct ThroughputResult {
  /// Modelled instructions per cycle over the measurement window.
  double Throughput = 0;
  uint64_t CompileCycles = 0;
  uint64_t Recompilations = 0;
  vm::VMStats Stats;
};

ThroughputResult measureThroughput(const bc::Program &P,
                                   const SpeedupOptions &Options);

/// Percentage speedup of \p Test over \p Base.
double speedupPercent(const ThroughputResult &Test,
                      const ThroughputResult &Base);

//===----------------------------------------------------------------------===//
// Warm-start time-to-peak (profile repository)
//===----------------------------------------------------------------------===//

/// One complete adaptive run for the warm-start experiment: the
/// install-timing stats plus the profile the run would commit to a
/// ProfileRepository (i.e. the snapshot a subsequent run warm-starts
/// from).
struct WarmStartRun {
  uint64_t Cycles = 0;
  /// Virtual cycle of the first optimized install; 0 when nothing
  /// installed.
  uint64_t FirstInstallCycle = 0;
  uint64_t Installs = 0;
  uint64_t WarmEnqueued = 0;
  uint64_t WarmInstalls = 0;
  prof::DCGSnapshot Profile;
};

/// Runs \p P to completion under the adaptive system (NewJikes oracle)
/// with the chosen CBS profiler for \p Pers. A null \p Warm is a cold
/// start; a non-null snapshot takes the repository warm-start path
/// (pre-enqueued hot methods at cycle 0). Byte-identical at any
/// \p CompileJobs value.
WarmStartRun runWarmStart(const bc::Program &P, vm::Personality Pers,
                          std::shared_ptr<const prof::DCGSnapshot> Warm,
                          uint64_t Seed, uint32_t CompileJobs = 0);

} // namespace cbs::exp

#endif // CBSVM_EXPERIMENTS_EXPERIMENTS_H
