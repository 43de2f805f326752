//===- bench/figure_warm_start.cpp - repository warm-start time-to-peak --------===//
//
// Part of the CBSVM project.
//
// Companion figure for the profile repository (DESIGN.md §15): how much
// earlier optimized code lands when a run warm-starts from the profile
// a previous run committed. Every workload runs to completion twice —
// cold, then warm-started from the cold run's own collected DCG (the
// exact snapshot `cbsvm run --profile-repo` would have persisted) —
// and the table compares the first-install virtual cycle of the two.
//
// Expected shape: the warm column is strictly earlier than the cold
// column wherever the cold run installed anything at all — warm starts
// pre-enqueue the persisted hot methods at cycle 0, so the first
// install waits only for the modelled compile latency instead of for
// the profiler to rediscover the hot region. The warm run's *outputs*
// are semantically identical to the cold run's; only the timing of
// optimized code changes.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <memory>

using namespace cbs;
using namespace cbs::bench;

namespace {

struct WorkloadResult {
  exp::WarmStartRun Cold;
  exp::WarmStartRun Warm;
};

} // namespace

int main(int Argc, char **Argv) {
  support::ArgParser Args(Argc, Argv);
  BenchReport Report(Args, "Warm start");
  unsigned Jobs = jobsFromArgs(Args);
  uint64_t Seed = seedFromArgs(Args);
  Args.finish();
  Report.printHeader(
      "Profile-repository warm start: time to first optimized install");

  const std::vector<wl::WorkloadInfo> &Suite = wl::suite();
  std::vector<WorkloadResult> Results(Suite.size());

  tel::MetricRegistry RunnerMetrics;
  exp::ParallelConfig Par;
  Par.Jobs = Jobs;
  Par.Metrics = &RunnerMetrics;
  exp::ParallelRunner Runner(Par);

  Report.beginTable("warm_start",
                    {"Benchmark", "cold first kcyc", "warm first kcyc",
                     "earlier %", "warm enqueued", "warm installs"});

  Runner.run(
      Suite.size(),
      [&](exp::ParallelRunner::TaskContext &Ctx) {
        bc::Program P = Suite[Ctx.Index].Build(wl::InputSize::Small, Seed);
        WorkloadResult &R = Results[Ctx.Index];
        R.Cold = exp::runWarmStart(P, vm::Personality::JikesRVM,
                                   /*Warm=*/nullptr, Seed);
        // The warm run consumes exactly the snapshot the cold run would
        // have committed to a fresh repository entry.
        auto Persisted =
            std::make_shared<const prof::DCGSnapshot>(R.Cold.Profile);
        R.Warm =
            exp::runWarmStart(P, vm::Personality::JikesRVM, Persisted, Seed);
        Ctx.Metrics.counter("exp.vm_runs") += 2;
      },
      [&](exp::ParallelRunner::TaskContext &Ctx) {
        const WorkloadResult &R = Results[Ctx.Index];
        double EarlierPct =
            R.Cold.FirstInstallCycle == 0
                ? 0.0
                : 100.0 * (1.0 - static_cast<double>(R.Warm.FirstInstallCycle) /
                                     static_cast<double>(
                                         R.Cold.FirstInstallCycle));
        Report.addRow(
            {std::string(Suite[Ctx.Index].Name),
             TablePrinter::formatDouble(R.Cold.FirstInstallCycle / 1e3, 1),
             TablePrinter::formatDouble(R.Warm.FirstInstallCycle / 1e3, 1),
             TablePrinter::formatDouble(EarlierPct, 1),
             std::to_string(R.Warm.WarmEnqueued),
             std::to_string(R.Warm.WarmInstalls)});
      });

  Report.print();
  std::printf(
      "\nReading: wherever the cold run installed optimized code at all "
      "(cold first > 0), the warm column must be strictly earlier — the "
      "repository's pre-enqueued hot methods skip the profiler's "
      "rediscovery window, which is the time-to-peak benefit the "
      "repository exists to buy.\n");
  printRunnerSummary(RunnerMetrics);
  return 0;
}
