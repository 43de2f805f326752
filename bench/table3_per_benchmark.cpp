//===- bench/table3_per_benchmark.cpp - Table 3 reproduction -------------------===//
//
// Part of the CBSVM project.
//
// Table 3: per-benchmark overhead and accuracy breakdown, small and
// large inputs, for both VM personalities. "Base" is each VM's
// baseline profiler (Jikes RVM: the timer sampler; J9: CBS with
// Stride=1, Samples=1 — §6.2 notes J9 has no timer DCG profiler), and
// "CBS" is the chosen knee configuration (Jikes: Stride=3, Samples=16;
// J9: Stride=7, Samples=16).
//
// Paper landmarks: average small-input accuracy ~26% (base) vs ~55%
// (CBS) on Jikes; large inputs profile better than small; CBS matches
// or beats base nearly everywhere (compress-large being the paper's
// noted exception); overhead stays within noise for all benchmarks.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "support/Statistics.h"

using namespace cbs;
using namespace cbs::bench;

int main(int Argc, char **Argv) {
  support::ArgParser Args(Argc, Argv);
  BenchReport Report(Args, "Table 3");
  unsigned Jobs = jobsFromArgs(Args);
  uint64_t Seed = seedFromArgs(Args);
  Args.finish();
  unsigned Runs = exp::envRuns(3);
  Report.printHeader("Per-benchmark overhead and accuracy breakdown");
  std::printf("runs per cell: %u (CBSVM_RUNS)\n\n", Runs);
  Report.note("runs", std::to_string(Runs));
  tel::MetricRegistry RunnerMetrics;

  for (vm::Personality Pers :
       {vm::Personality::JikesRVM, vm::Personality::J9}) {
    std::printf("--- %s personality ---\n", personalityName(Pers));
    vm::ProfilerOptions Base = exp::baseProfiler(Pers);
    vm::ProfilerOptions CBS = exp::chosenCBS(Pers);
    std::printf("base = %s; cbs = Stride=%u, Samples=%u\n",
                Pers == vm::Personality::JikesRVM ? "timer sampling"
                                                  : "CBS(1,1)",
                CBS.CBS.Stride, CBS.CBS.SamplesPerTick);

    Report.beginTable(Pers == vm::Personality::JikesRVM ? "jikes" : "j9",
                      {"Benchmark", "Base ovh%", "Base acc", "CBS ovh%",
                       "CBS acc"});
    for (wl::InputSize Size :
         {wl::InputSize::Small, wl::InputSize::Large}) {
      std::vector<double> BaseAcc, CBSAcc, BaseOvh, CBSOvh;
      // One task per workload; both configurations are measured inside
      // the task (serial inner harness — no nested pools) and rows
      // commit in suite order, keeping the table byte-identical to the
      // serial schedule.
      const std::vector<wl::WorkloadInfo> &Suite = wl::suite();
      std::vector<std::pair<exp::AccuracyCell, exp::AccuracyCell>> Cells(
          Suite.size());
      exp::ParallelConfig Par;
      Par.Jobs = Jobs;
      Par.Metrics = &RunnerMetrics;
      exp::ParallelRunner Runner(Par);
      exp::ParallelConfig Serial;
      Serial.Jobs = 1;
      Runner.run(
          Suite.size(),
          [&](exp::ParallelRunner::TaskContext &Ctx) {
            const wl::WorkloadInfo &W = Suite[Ctx.Index];
            Cells[Ctx.Index] = {
                exp::measureAccuracyMedian(W, Size, Pers, Base, Runs, Seed,
                                           Serial),
                exp::measureAccuracyMedian(W, Size, Pers, CBS, Runs, Seed,
                                           Serial)};
          },
          [&](exp::ParallelRunner::TaskContext &Ctx) {
            const wl::WorkloadInfo &W = Suite[Ctx.Index];
            const auto &[BaseCell, CBSCell] = Cells[Ctx.Index];
            Report.addRow(
                {std::string(W.Name) + "-" + wl::inputSizeName(Size),
                 TablePrinter::formatDouble(BaseCell.OverheadPct, 2),
                 TablePrinter::formatDouble(BaseCell.AccuracyPct, 0),
                 TablePrinter::formatDouble(CBSCell.OverheadPct, 2),
                 TablePrinter::formatDouble(CBSCell.AccuracyPct, 0)});
            BaseAcc.push_back(BaseCell.AccuracyPct);
            CBSAcc.push_back(CBSCell.AccuracyPct);
            BaseOvh.push_back(BaseCell.OverheadPct);
            CBSOvh.push_back(CBSCell.OverheadPct);
          });
      Report.addRow({std::string("Average ") + wl::inputSizeName(Size),
                     TablePrinter::formatDouble(mean(BaseOvh), 2),
                     TablePrinter::formatDouble(mean(BaseAcc), 0),
                     TablePrinter::formatDouble(mean(CBSOvh), 2),
                     TablePrinter::formatDouble(mean(CBSAcc), 0)});
      Report.separator();
    }
    Report.print();
    std::printf("\n");
  }
  std::printf("paper landmarks (Jikes): small avg 26 (base) vs 55 (cbs); "
              "large avg 50 vs 69;\nJ9: small 27 vs 51, large 46 vs 74; "
              "overhead < ~0.5%% everywhere.\n");
  printRunnerSummary(RunnerMetrics);
  return 0;
}
