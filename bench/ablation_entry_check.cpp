//===- bench/ablation_entry_check.cpp - §4 entry-check ablation ----------------===//
//
// Part of the CBSVM project.
//
// §4 implementation options: in most VMs the CBS check can overload an
// existing method-entry test, costing nothing while disarmed. A VM
// without any entry test would pay ~3 executed instructions per method
// entry. This ablation measures that difference — the overhead of the
// *check itself*, independent of sampling.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "support/Statistics.h"

using namespace cbs;
using namespace cbs::bench;

int main(int Argc, char **Argv) {
  support::ArgParser Args(Argc, Argv);
  BenchReport Report(Args, "Ablation: overloaded vs explicit entry check");
  Args.finish();
  Report.printHeader("the zero-overhead-when-disarmed claim (§4)");

  Report.beginTable("entry_check",
                    {"Benchmark", "overloaded ovh%", "explicit-check ovh%"});
  std::vector<double> Overloaded, Explicit;

  for (const wl::WorkloadInfo &W : wl::suite()) {
    bc::Program P = W.Build(wl::InputSize::Small, 1);
    exp::PerfectProfile Perfect =
        exp::runPerfect(P, vm::Personality::J9, 1);

    auto Measure = [&](bool ExplicitCheck) {
      vm::VMConfig Config = exp::jitOnlyConfig(P, vm::Personality::J9, 1);
      Config.Profiler = exp::chosenCBS(vm::Personality::J9);
      Config.ExplicitEntryCheck = ExplicitCheck;
      vm::VirtualMachine VM(P, Config);
      VM.run();
      return 100.0 *
             (static_cast<double>(VM.stats().Cycles) -
              static_cast<double>(Perfect.BaseCycles)) /
             static_cast<double>(Perfect.BaseCycles);
    };

    double O = Measure(false), E = Measure(true);
    Overloaded.push_back(O);
    Explicit.push_back(E);
    Report.addRow({W.Name, TablePrinter::formatDouble(O, 2),
                   TablePrinter::formatDouble(E, 2)});
  }
  Report.separator();
  Report.addRow({"Average", TablePrinter::formatDouble(mean(Overloaded), 2),
                 TablePrinter::formatDouble(mean(Explicit), 2)});
  Report.print();
  std::printf("\nThe explicit 3-instruction check costs real overhead on "
              "call-dense programs;\nthe overloaded flag keeps the "
              "disarmed path free — the paper's argument for\nwhy CBS "
              "drops into most VMs at essentially zero cost.\n");
  return 0;
}
