//===- bench/figure1_timer_bias.cpp - Figure 1 demonstration -------------------===//
//
// Part of the CBSVM project.
//
// Figure 1: the paper's motivating example. A loop executes a long
// sequence of non-call instructions followed by two short calls; both
// calls execute exactly as often, but timer-based sampling attributes
// nearly everything to call_1 (the flag set during the non-call
// stretch is consumed by the first prologue) and almost nothing to
// call_2. CBS samples both evenly. The sweep below varies the length
// of the non-call stretch — the paper notes "the problem worsens as
// the number of non-call instructions increases".
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "profiling/ProfilerRegistry.h"

using namespace cbs;
using namespace cbs::bench;

namespace {

struct Split {
  double Call1Share = 0;  ///< call_1's share of the two-call weight
  double Accuracy = 0;    ///< overlap vs the exhaustive profile
  uint64_t Samples = 0;
};

Split measure(const bc::Program &P, const exp::PerfectProfile &Perfect,
              const vm::ProfilerOptions &Prof) {
  vm::VMConfig Config =
      exp::jitOnlyConfig(P, vm::Personality::JikesRVM, 1);
  Config.Profiler = Prof;
  vm::VirtualMachine VM(P, Config);
  VM.run();
  prof::DCGSnapshot DCG = VM.profile();
  uint64_t W1 = 0, W2 = 0;
  DCG.forEachEdge([&](prof::CallEdge E, uint64_t W) {
    std::string Name = P.qualifiedName(E.Callee);
    if (Name == "call_1")
      W1 += W;
    else if (Name == "call_2")
      W2 += W;
  });
  Split S;
  S.Call1Share =
      W1 + W2 == 0 ? 0 : 100.0 * static_cast<double>(W1) / (W1 + W2);
  S.Accuracy = prof::accuracy(DCG, Perfect.DCG);
  S.Samples = VM.stats().SamplesTaken;
  return S;
}

} // namespace

int main(int Argc, char **Argv) {
  support::ArgParser Args(Argc, Argv);
  BenchReport Report(Args, "Figure 1");
  Args.finish();
  Report.printHeader("Timer-based sampling misattributes call frequency");

  Report.beginTable("timer_bias", {"Non-call work", "timer call_1 %",
                                   "timer acc", "cbs call_1 %", "cbs acc"});

  vm::ProfilerOptions Timer;
  prof::ProfilerRegistry::instance().configure("timer", Timer);
  vm::ProfilerOptions CBS = exp::chosenCBS(vm::Personality::JikesRVM);

  for (int32_t Work : {50, 200, 800, 3200, 12800}) {
    bc::Program P = wl::buildFigure1(Work, 4'000'000 / (Work + 60));
    exp::PerfectProfile Perfect =
        exp::runPerfect(P, vm::Personality::JikesRVM, 1);
    Split T = measure(P, Perfect, Timer);
    Split C = measure(P, Perfect, CBS);
    Report.addRow({std::to_string(Work),
                   TablePrinter::formatDouble(T.Call1Share, 1),
                   TablePrinter::formatDouble(T.Accuracy, 0),
                   TablePrinter::formatDouble(C.Call1Share, 1),
                   TablePrinter::formatDouble(C.Accuracy, 0)});
  }
  Report.print();
  std::printf("\nGround truth: call_1 and call_2 each execute 50%% of the "
              "calls in the loop.\nTimer sampling drifts toward 100%% "
              "call_1 as the non-call stretch grows; CBS\nstays at ~50%%.\n");
  return 0;
}
