//===- bench/ablation_phase_shift.cpp - continuous vs windowed profiling --------===//
//
// Part of the CBSVM project.
//
// §1 motivates CBS as "continuously collecting profiles, rather than
// only profiling a particular time window", and §3.2 warns that short
// profiling windows risk capturing "a short burst of non-representative
// behavior". This ablation runs the two-phase workload (hot call set
// shifts halfway through) and scores each profiler's repository against
// *phase B's* exhaustive profile at the end of the run — the profile an
// optimizer acting late in the run would want:
//
//   - code patching collected its fixed windows during phase A and shut
//     off: it still describes phase A;
//   - plain CBS keeps collecting, but its history dilutes phase B;
//   - CBS with periodic decay (the Jikes organizer behaviour) converges
//     to phase B.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "profiling/ProfilerRegistry.h"

using namespace cbs;
using namespace cbs::bench;

namespace {

/// Exhaustive profile of just phase B: run the whole program, then
/// subtract the phase-A-end snapshot. Easiest deterministic route: run
/// the phased program and snapshot the exhaustive profile at the
/// midpoint.
prof::DCGSnapshot phaseBProfile(const bc::Program &P,
                                uint64_t &MidCycles) {
  vm::VMConfig Config = exp::jitOnlyConfig(P, vm::Personality::JikesRVM, 1);
  prof::ProfilerRegistry::instance().configure("exhaustive", Config.Profiler);
  vm::VirtualMachine VM(P, Config);
  // Find total cycles first.
  VM.run();
  uint64_t Total = VM.stats().Cycles;
  MidCycles = Total / 2;

  vm::VirtualMachine First(P, Config);
  First.run(MidCycles);
  prof::DCGSnapshot PhaseA = First.profile();
  First.run();
  prof::DCGSnapshot Whole = First.profile();

  std::vector<prof::DCGSnapshot::Edge> PhaseB;
  Whole.forEachEdge([&](prof::CallEdge E, uint64_t W) {
    uint64_t Before = PhaseA.weight(E);
    if (W > Before)
      PhaseB.push_back({E, W - Before});
  });
  return prof::DCGSnapshot::fromEdges(std::move(PhaseB));
}

} // namespace

int main(int Argc, char **Argv) {
  support::ArgParser Args(Argc, Argv);
  BenchReport Report(Args, "Ablation: phase shift");
  Args.finish();
  Report.printHeader("continuous profiling vs windows vs decay (§1, §3.2)");

  bc::Program P = wl::buildPhased(wl::InputSize::Small, 1);
  uint64_t MidCycles = 0;
  prof::DCGSnapshot PhaseB = phaseBProfile(P, MidCycles);

  struct Config {
    const char *Name;
    vm::ProfilerOptions Prof;
  };
  std::vector<Config> Configs;
  {
    const prof::ProfilerRegistry &Registry =
        prof::ProfilerRegistry::instance();
    Config Timer{"timer", {}};
    Registry.configure("timer", Timer.Prof);
    Configs.push_back(Timer);

    Config Patch{"code patching", {}};
    Registry.configure("patching", Patch.Prof);
    Patch.Prof.PromoteAfterInvocations = 500;
    Configs.push_back(Patch);

    Config CBS{"cbs(3,16)", exp::chosenCBS(vm::Personality::JikesRVM)};
    Configs.push_back(CBS);

    Config Decay{"cbs(3,16)+decay", exp::chosenCBS(vm::Personality::JikesRVM)};
    Decay.Prof.DecayEveryTicks = 8;
    Decay.Prof.DecayFactor = 0.7;
    Configs.push_back(Decay);
  }

  Report.beginTable("phase_b_accuracy",
                    {"Profiler", "accuracy vs phase-B profile", "samples"});
  for (const Config &C : Configs) {
    vm::VMConfig VC = exp::jitOnlyConfig(P, vm::Personality::JikesRVM, 1);
    VC.Profiler = C.Prof;
    vm::VirtualMachine VM(P, VC);
    VM.run();
    Report.addRow(
        {C.Name,
         TablePrinter::formatDouble(prof::accuracy(VM.profile(), PhaseB), 0),
         std::to_string(VM.stats().SamplesTaken)});
  }
  Report.print();
  std::printf("\nThe metric scores each final repository against what a "
              "late-run optimizer\nneeds: the phase-B profile. One-shot "
              "windows freeze phase A; decayed CBS\ntracks the shift.\n");
  return 0;
}
