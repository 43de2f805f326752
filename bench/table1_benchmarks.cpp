//===- bench/table1_benchmarks.cpp - Table 1 reproduction ----------------------===//
//
// Part of the CBSVM project.
//
// Table 1: benchmark characteristics — run time, methods executed, and
// executed bytecode size, for small and large inputs. "Time" here is
// modelled cycles (see DESIGN.md: 1 virtual second := the cycle count a
// 2005-class machine retires in a second, ~2.8e9; the paper's absolute
// seconds are not meaningful on a simulator, the relative sizes are).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace cbs;
using namespace cbs::bench;

int main(int Argc, char **Argv) {
  support::ArgParser Args(Argc, Argv);
  BenchReport Report(Args, "Table 1");
  Args.finish();
  Report.printHeader("Benchmarks used in this study");

  Report.beginTable("benchmarks",
                    {"Benchmark", "Cycles(M) small", "Meth exe", "Size (K)",
                     "Cycles(M) large", "Meth exe", "Size (K)"});

  for (const wl::WorkloadInfo &W : wl::suite()) {
    std::vector<std::string> Row{W.Name};
    for (wl::InputSize Size : {wl::InputSize::Small, wl::InputSize::Large}) {
      bc::Program P = W.Build(Size, 1);
      exp::PerfectProfile PP =
          exp::runPerfect(P, vm::Personality::JikesRVM, 1);
      // "Size (K)": total bytecode bytes; all generated methods are
      // executed, so program size equals executed size.
      uint64_t ExecutedBytes = P.totalSizeBytes();
      Row.push_back(TablePrinter::formatDouble(PP.BaseCycles / 1e6, 1));
      Row.push_back(std::to_string(PP.MethodsExecuted));
      Row.push_back(TablePrinter::formatDouble(ExecutedBytes / 1024.0, 0));
    }
    Report.addRow(Row);
  }
  Report.print();
  std::printf("\nPaper reference (small input): compress 243 methods/22K, "
              "jess 662/42K,\njavac 939/86K, daikon 1671/140K, kawa "
              "1794/96K, soot 1215/111K.\n");
  return 0;
}
