//===- bench/ablation_initial_skip.cpp - §4 initial-skip ablation --------------===//
//
// Part of the CBSVM project.
//
// §4: "To ensure that all calls in the profiling window have an equal
// chance of being profiled, the timer mechanism can select the initial
// value of skippedInvocations from the interval [1..STRIDE] via either
// a pseudo-random number generator or a round-robin approach."
//
// This ablation compares Fixed / RoundRobin / Random initial skips on
// (a) the adversarial program whose call bursts align with the window
// geometry, and (b) the regular benchmark suite (where the choice
// barely matters — the paper's reason for not belaboring it).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "support/Statistics.h"

using namespace cbs;
using namespace cbs::bench;

namespace {

double adversaryDecoyError(prof::SkipPolicy Skip, uint32_t Stride,
                           uint32_t Samples) {
  bc::Program P =
      wl::buildAdversary(Stride * Samples + 1, 150'000);
  vm::VMConfig Config =
      exp::jitOnlyConfig(P, vm::Personality::JikesRVM, 1);
  Config.Profiler.Kind = vm::ProfilerKind::CBS;
  Config.Profiler.CBS.Stride = Stride;
  Config.Profiler.CBS.SamplesPerTick = Samples;
  Config.Profiler.CBS.Skip = Skip;
  // Keep the timer strictly periodic: the adversary attacks exactly
  // this determinism.
  Config.TimerJitterPct = 0;
  vm::VirtualMachine VM(P, Config);
  VM.run();
  prof::DCGSnapshot DCG = VM.profile();
  uint64_t Decoy = 0;
  DCG.forEachEdge([&](prof::CallEdge E, uint64_t W) {
    if (P.qualifiedName(E.Callee) == "decoy")
      Decoy += W;
  });
  double TrueShare = 1.0 / (Stride * Samples + 1);
  double Observed = DCG.totalWeight() == 0
                        ? 0.0
                        : static_cast<double>(Decoy) / DCG.totalWeight();
  return 100.0 * std::abs(Observed - TrueShare) / TrueShare;
}

const char *skipName(prof::SkipPolicy Skip) {
  switch (Skip) {
  case prof::SkipPolicy::Fixed:
    return "fixed";
  case prof::SkipPolicy::RoundRobin:
    return "round-robin";
  case prof::SkipPolicy::Random:
    return "random";
  }
  return "?";
}

} // namespace

int main(int Argc, char **Argv) {
  support::ArgParser Args(Argc, Argv);
  BenchReport Report(Args, "Ablation: initial skip policy");
  Args.finish();
  Report.printHeader("pseudo-random vs round-robin vs fixed (§4)");

  {
    std::printf("--- adversarial program (burst aligned to the window; "
                "strictly periodic timer) ---\n");
    Report.beginTable("adversary", {"Stride/Samples", "fixed err%",
                                    "round-robin err%", "random err%"});
    for (auto [Stride, Samples] :
         {std::pair{4u, 2u}, std::pair{3u, 4u}, std::pair{7u, 2u}}) {
      std::vector<std::string> Row{std::to_string(Stride) + "/" +
                                   std::to_string(Samples)};
      for (prof::SkipPolicy Skip :
           {prof::SkipPolicy::Fixed, prof::SkipPolicy::RoundRobin,
            prof::SkipPolicy::Random})
        Row.push_back(TablePrinter::formatDouble(
            adversaryDecoyError(Skip, Stride, Samples), 0));
      Report.addRow(std::move(Row));
    }
    Report.print();
    std::printf("err%% = relative error of the decoy call's observed "
                "profile share vs ground truth\n\n");
  }

  {
    std::printf("--- benchmark suite (small inputs): accuracy is "
                "insensitive to the policy ---\n");
    Report.beginTable("suite_accuracy", {"Policy", "avg accuracy"});
    for (prof::SkipPolicy Skip :
         {prof::SkipPolicy::Fixed, prof::SkipPolicy::RoundRobin,
          prof::SkipPolicy::Random}) {
      std::vector<double> Acc;
      for (const wl::WorkloadInfo &W : wl::suite()) {
        bc::Program P = W.Build(wl::InputSize::Small, 1);
        exp::PerfectProfile Perfect =
            exp::runPerfect(P, vm::Personality::JikesRVM, 1);
        vm::ProfilerOptions Prof = exp::chosenCBS(vm::Personality::JikesRVM);
        Prof.CBS.Skip = Skip;
        Acc.push_back(exp::measureAccuracy(P, vm::Personality::JikesRVM,
                                           Prof, Perfect, 1)
                          .AccuracyPct);
      }
      Report.addRow(
          {skipName(Skip), TablePrinter::formatDouble(mean(Acc), 1)});
    }
    Report.print();
  }
  return 0;
}
