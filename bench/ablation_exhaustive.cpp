//===- bench/ablation_exhaustive.cpp - §3.1 exhaustive-counter ablation --------===//
//
// Part of the CBSVM project.
//
// §3.1: Vortex instrumented polymorphic inline caches with counters to
// collect edge weights exhaustively — and paid 15-50% overhead for it.
// This ablation reproduces that tradeoff: perfect accuracy at
// per-call-counter cost, vs CBS's ~0.3% for most of the accuracy.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "support/Statistics.h"

using namespace cbs;
using namespace cbs::bench;

int main(int Argc, char **Argv) {
  support::ArgParser Args(Argc, Argv);
  BenchReport Report(Args, "Ablation: exhaustive per-call counters vs CBS");
  Args.finish();
  Report.printHeader("the Vortex 15-50% overhead tradeoff (§3.1)");

  Report.beginTable("exhaustive_vs_cbs",
                    {"Benchmark", "exhaustive ovh%", "exhaustive acc",
                     "cbs ovh%", "cbs acc"});
  std::vector<double> ExOvh, CBSOvh, CBSAcc;

  for (const wl::WorkloadInfo &W : wl::suite()) {
    bc::Program P = W.Build(wl::InputSize::Small, 1);
    exp::PerfectProfile Perfect =
        exp::runPerfect(P, vm::Personality::JikesRVM, 1);

    vm::ProfilerOptions Ex;
    Ex.Kind = vm::ProfilerKind::Exhaustive;
    Ex.ChargeExhaustiveCounters = true;
    exp::AccuracyCell ExCell =
        exp::measureAccuracy(P, vm::Personality::JikesRVM, Ex, Perfect, 1);

    exp::AccuracyCell CBSCell = exp::measureAccuracy(
        P, vm::Personality::JikesRVM,
        exp::chosenCBS(vm::Personality::JikesRVM), Perfect, 1);

    ExOvh.push_back(ExCell.OverheadPct);
    CBSOvh.push_back(CBSCell.OverheadPct);
    CBSAcc.push_back(CBSCell.AccuracyPct);
    Report.addRow({W.Name, TablePrinter::formatDouble(ExCell.OverheadPct, 1),
                   TablePrinter::formatDouble(ExCell.AccuracyPct, 0),
                   TablePrinter::formatDouble(CBSCell.OverheadPct, 2),
                   TablePrinter::formatDouble(CBSCell.AccuracyPct, 0)});
  }
  Report.separator();
  Report.addRow({"Average", TablePrinter::formatDouble(mean(ExOvh), 1), "100",
                 TablePrinter::formatDouble(mean(CBSOvh), 2),
                 TablePrinter::formatDouble(mean(CBSAcc), 0)});
  Report.print();
  std::printf("\npaper landmark: instrumented PICs cost 15-50%% depending "
              "on call density.\n");
  return 0;
}
