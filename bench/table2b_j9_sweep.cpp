//===- bench/table2b_j9_sweep.cpp - Table 2B reproduction ----------------------===//
//
// Part of the CBSVM project.
//
// Table 2B: the same Stride x Samples grid as Table 2A, on the J9
// personality (overloaded method-entry check; entries are the only
// invocation events). The paper's point: despite the two VMs'
// differences, the trends are the same — (1,1) ~37% accuracy, a knee
// like Stride=7/Samples=32 at ~69% accuracy for ~0.5% overhead.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace cbs;
using namespace cbs::bench;

int main(int Argc, char **Argv) {
  support::ArgParser Args(Argc, Argv);
  BenchReport Report(Args, "Table 2B");
  unsigned Jobs = jobsFromArgs(Args);
  uint64_t Seed = seedFromArgs(Args);
  Args.finish();
  Report.printHeader("Overhead%/Accuracy over the Stride x Samples grid "
                     "(J9 personality)");

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
      exp::runSweep(vm::Personality::J9, Workloads, wl::InputSize::Small,
                    Strides, Samples, Runs, Seed, Par);
  printRunnerSummary(RunnerMetrics);

  Report.note("personality", "j9");
  Report.note("runs", std::to_string(Runs));
  reportSweep(Report, R);
  std::printf("paper landmarks: (1,1) ~= -/37; (7,32) ~= 0.5/69\n");
  return 0;
}
