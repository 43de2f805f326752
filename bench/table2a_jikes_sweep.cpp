//===- bench/table2a_jikes_sweep.cpp - Table 2A reproduction -------------------===//
//
// Part of the CBSVM project.
//
// Table 2A: overhead and accuracy of counter-based sampling on the
// Jikes RVM personality, over a grid of Stride (columns) and
// Samples-per-timer-tick (rows), printed as two grids: overhead % and
// accuracy. Values are the average over all benchmarks (small inputs),
// median over CBSVM_RUNS seeds.
//
// The paper's landmarks to compare against: the (1,1) corner is the
// original timer-quality profile (~38% accuracy); a knee such as
// Stride=3/Samples=32 reaches ~1.7x that accuracy for ~0.3% overhead;
// the bottom rows buy little extra accuracy for overhead that climbs
// into the tens of percent.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace cbs;
using namespace cbs::bench;

int main(int Argc, char **Argv) {
  support::ArgParser Args(Argc, Argv);
  BenchReport Report(Args, "Table 2A");
  unsigned Jobs = jobsFromArgs(Args);
  uint64_t Seed = seedFromArgs(Args);
  Args.finish();
  Report.printHeader("Overhead%/Accuracy over the Stride x Samples grid "
                     "(Jikes RVM personality)");

  std::vector<uint32_t> Strides = {1, 3, 7, 15, 31, 63};
  std::vector<uint32_t> Samples = {1,  2,   4,   8,    16,  32,
                                   64, 128, 256, 1024, 4096, 8192};
  unsigned Runs = exp::envRuns(3);

  std::vector<const wl::WorkloadInfo *> Workloads;
  for (const wl::WorkloadInfo &W : wl::suite())
    Workloads.push_back(&W);

  std::printf("benchmarks: all %zu (small inputs); runs per cell: %u "
              "(CBSVM_RUNS)\n\n",
              Workloads.size(), Runs);

  tel::MetricRegistry RunnerMetrics;
  exp::ParallelConfig Par;
  Par.Jobs = Jobs;
  Par.Metrics = &RunnerMetrics;
  exp::SweepResult R =
      exp::runSweep(vm::Personality::JikesRVM, Workloads,
                    wl::InputSize::Small, Strides, Samples, Runs, Seed, Par);
  printRunnerSummary(RunnerMetrics);

  Report.note("personality", "jikes");
  Report.note("runs", std::to_string(Runs));
  reportSweep(Report, R);
  std::printf("paper landmarks: (1,1) ~= -/38; (3,32) ~= 0.3/66; large "
              "samples rows cost tens of %% overhead\n");
  return 0;
}
