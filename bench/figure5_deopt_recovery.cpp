//===- bench/figure5_deopt_recovery.cpp - phased recovery ablation --------------===//
//
// Part of the CBSVM project.
//
// Figure 5 companion: what guarded speculative inlining costs when its
// assumptions die, and what deoptimization buys back. The phased
// workload runs two equally long phases with disjoint hot call sets;
// versions compiled during phase A guard-inline phase-A receivers, so
// in phase B every guarded dispatch pays its guard tests and falls back
// to the real virtual call.
//
// Same-level reoptimization is disabled in both adaptive arms, so the
// only post-shift repair channel is guard policing: the `stale` arm
// keeps the phase-A code to the end (the regression), the `deopt` arm
// invalidates it and recompiles against the phase-B profile (the
// recovery). The no-AOS interpreter row anchors the scale. All runs
// are virtual-time deterministic: the cycle counts are exact, not
// sampled, so no repetition is needed.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "workloads/Patterns.h"

using namespace cbs;
using namespace cbs::bench;

namespace {

/// One hot method whose single virtual site flips its dominant
/// receiver mid-run: phase A dispatches every call to class A, phase B
/// to class B. Unlike the phased workload (whose phases run *disjoint*
/// methods, so stale phase-A code simply stops executing), the stale
/// speculative version here keeps running through phase B, paying its
/// guard tests and the fallback dispatch on every call — the cost
/// dominance-loss policing exists to recover.
///
/// \p PerCall sets the frame lifetime: each loop() invocation runs that
/// many iterations, so PerCall == PerPhase means one frame spans an
/// entire phase. Without OSR a deopted frame runs at baseline speed
/// until it returns, so short-lived frames (small PerCall) are the
/// only shape plain deoptimization repairs; the long-lived rows below
/// measure what the OSR arm buys back for the other shape.
bc::Program receiverFlipProgram(int64_t PerPhase, int64_t PerCall) {
  const int64_t Calls = PerPhase / PerCall;
  bc::ProgramBuilder PB;
  wl::ClassFamily Family = wl::makeClassFamily(PB, "FlipHandler", 2);
  bc::SelectorId Sel = PB.addSelector("handle", 2);
  wl::implementSelector(PB, Family, Sel, {6, 6}, {3, 3});

  // loop(count, pick): locals 0 count, 1 pick, 2 acc, 3..4 receivers.
  bc::MethodId Loop =
      PB.declareStatic("loop", {bc::ValKind::Int, bc::ValKind::Int},
                       /*HasResult=*/true, bc::ValKind::Int);
  {
    bc::MethodBuilder MB = PB.defineMethod(Loop);
    MB.iconst(0).istore(2);
    wl::emitReceiverInit(MB, Family.Subclasses, /*FirstSlot=*/3);
    bc::Label Head = MB.newLabel(), Exit = MB.newLabel();
    MB.bind(Head).iload(0).ifLe(Exit);
    MB.work(30);
    wl::emitPickReceiver(MB, 1, {{3, 8}, {4, 16}}, 16);
    MB.iload(0).invokeVirtual(Sel).iload(2).iadd().istore(2);
    MB.iinc(0, -1).jump(Head);
    MB.bind(Exit).iload(2).iret();
    MB.finish();
  }

  // drive(calls, pick): locals 0 calls, 1 pick, 2 acc.
  bc::MethodId Drive =
      PB.declareStatic("drive", {bc::ValKind::Int, bc::ValKind::Int},
                       /*HasResult=*/true, bc::ValKind::Int);
  {
    bc::MethodBuilder MB = PB.defineMethod(Drive);
    MB.iconst(0).istore(2);
    bc::Label Head = MB.newLabel(), Exit = MB.newLabel();
    MB.bind(Head).iload(0).ifLe(Exit);
    MB.iconst(PerCall).iload(1).invokeStatic(Loop).iload(2).iadd().istore(2);
    MB.iinc(0, -1).jump(Head);
    MB.bind(Exit).iload(2).iret();
    MB.finish();
  }

  bc::MethodId Main = PB.declareStatic("main");
  {
    bc::MethodBuilder MB = PB.defineMethod(Main);
    MB.iconst(Calls).iconst(0).invokeStatic(Drive).istore(0);
    MB.iconst(Calls).iconst(15).invokeStatic(Drive).iload(0).iadd().istore(0);
    MB.iload(0).print();
    MB.finish();
  }
  return PB.finish(Main);
}

struct ArmResult {
  uint64_t Cycles = 0;
  aos::DeoptStats Deopt;
  uint64_t Recompilations = 0;
};

vm::VMConfig phasedConfig(const bc::Program &P, uint64_t Seed) {
  vm::VMConfig Config = exp::jitOnlyConfig(P, vm::Personality::JikesRVM, Seed);
  Config.Profiler = exp::chosenCBS(vm::Personality::JikesRVM);
  // Decay plus the quality monitor: the profile must track the shift
  // (or neither arm would ever learn about phase B), and the monitor's
  // phase-shift flag is one of the two deopt triggers.
  Config.Profiler.DecayEveryTicks = 8;
  Config.Profiler.DecayFactor = 0.8;
  Config.Profiler.Quality.EveryTicks = 8;
  Config.Profiler.Quality.PhaseShiftOverlapPct = 70.0;
  return Config;
}

/// The four arms of a row: no AOS, AOS without policing (stale),
/// policing alone (deopt), and policing plus on-stack replacement (osr).
enum class Arm { Interp, Stale, Deopt, Osr };

ArmResult runArm(const bc::Program &P, Arm A, double LatencyScale,
                 uint64_t Seed) {
  exp::RunSpec Spec{.P = &P, .Config = phasedConfig(P, Seed)};
  if (A != Arm::Interp) {
    Spec.Config.EnableOSR = A == Arm::Osr;
    // Isolate the mechanism under test: with same-level reoptimization
    // off, nothing but the deopt path can replace phase-A code.
    Spec.AOS.emplace();
    Spec.AOS->CompileLatencyScale = LatencyScale;
    Spec.AOS->MaxReoptsPerMethod = 0;
    Spec.AOS->Deopt.Enabled = A != Arm::Stale;
    Spec.AOS->Deopt.DominanceThresholdPct = 40.0;
  }
  exp::Run Run(std::move(Spec));
  if (Run.run() != vm::RunState::Finished)
    std::fprintf(stderr, "warning: %s arm did not finish\n",
                 A == Arm::Interp ? "interpreter" : "adaptive");

  ArmResult R;
  R.Cycles = Run.vm().stats().Cycles;
  if (const aos::AdaptiveSystem *AOS = Run.adaptive()) {
    R.Recompilations = AOS->stats().Recompilations;
    if (AOS->deoptController())
      R.Deopt = AOS->deoptController()->stats();
  }
  return R;
}

} // namespace

int main(int Argc, char **Argv) {
  support::ArgParser Args(Argc, Argv);
  BenchReport Report(Args, "Figure 5 (deopt recovery)");
  uint64_t Seed = seedFromArgs(Args);
  Args.finish();
  Report.printHeader(
      "Phased workload: stale speculative code vs guard policing");

  std::vector<std::string> Header{
      "input/latency", "interp Mcyc", "stale Mcyc",  "deopt Mcyc",
      "osr Mcyc",      "recovery %",  "osr rec %",   "deopts",
      "guard fails",   "recompiles"};

  // Each row runs all four arms. The recovery columns are the cycle
  // saving of the deopt and osr arms relative to running phase B through
  // phase-A speculation.
  auto emitRow = [&](const char *Label, const bc::Program &P,
                     double Latency) {
    ArmResult Interp = runArm(P, Arm::Interp, Latency, Seed);
    ArmResult Stale = runArm(P, Arm::Stale, Latency, Seed);
    ArmResult Deopt = runArm(P, Arm::Deopt, Latency, Seed);
    ArmResult Osr = runArm(P, Arm::Osr, Latency, Seed);
    auto RecoveryPct = [&Stale](uint64_t ArmCycles) {
      return Stale.Cycles ? 100.0 *
                                (static_cast<double>(Stale.Cycles) -
                                 static_cast<double>(ArmCycles)) /
                                static_cast<double>(Stale.Cycles)
                          : 0.0;
    };
    Report.addRow({Label, TablePrinter::formatDouble(Interp.Cycles / 1e6, 1),
                   TablePrinter::formatDouble(Stale.Cycles / 1e6, 1),
                   TablePrinter::formatDouble(Deopt.Cycles / 1e6, 1),
                   TablePrinter::formatDouble(Osr.Cycles / 1e6, 1),
                   TablePrinter::formatDouble(RecoveryPct(Deopt.Cycles), 2),
                   TablePrinter::formatDouble(RecoveryPct(Osr.Cycles), 2),
                   std::to_string(Deopt.Deopt.Deopts),
                   std::to_string(Deopt.Deopt.GuardFailures),
                   std::to_string(Deopt.Deopt.Recompiles)});
  };

  Report.beginTable("phased_recovery", Header);

  struct Row {
    const char *Label;
    wl::InputSize Size;
    double Latency;
  };
  const Row Rows[] = {
      {"small/1x", wl::InputSize::Small, 1.0},
      {"small/25x", wl::InputSize::Small, 25.0},
      {"large/1x", wl::InputSize::Large, 1.0},
  };
  for (const Row &R : Rows)
    emitRow(R.Label, wl::buildPhased(R.Size, Seed), R.Latency);
  Report.print();

  std::printf("\n--- receiver flip: one hot site whose dominant callee "
              "changes mid-run ---\n");
  struct FlipRow {
    const char *Label;
    int64_t PerPhase;
    int64_t PerCall;
    double Latency;
  };
  // Short-lived frames: each loop() frame covers 500 iterations, so the
  // recompiled version is re-entered a few calls after the deopt.
  Report.beginTable("receiver_flip", Header);
  const FlipRow FlipRows[] = {
      {"60k/1x", 60'000, 500, 1.0},
      {"300k/1x", 300'000, 500, 1.0},
      {"300k/25x", 300'000, 500, 25.0},
  };
  for (const FlipRow &R : FlipRows)
    emitRow(R.Label, receiverFlipProgram(R.PerPhase, R.PerCall), R.Latency);
  Report.print();

  std::printf("\n--- receiver flip, long-lived frames: one loop() frame "
              "spans an entire phase ---\n");
  // The shape plain deoptimization cannot repair: the deopted frame
  // never returns inside the phase, so without OSR it limps to the end
  // at baseline speed and the recompiled version is never entered. The
  // osr arm transfers the live frame at the next backedge yieldpoint.
  Report.beginTable("receiver_flip_long", Header);
  const FlipRow LongRows[] = {
      {"60k/1x", 60'000, 60'000, 1.0},
      {"300k/1x", 300'000, 300'000, 1.0},
      {"300k/25x", 300'000, 300'000, 25.0},
  };
  for (const FlipRow &R : LongRows)
    emitRow(R.Label, receiverFlipProgram(R.PerPhase, R.PerCall), R.Latency);
  Report.print();

  std::printf("\nrecovery %% is the cycle saving of guard policing over the "
              "stale-plan arm,\nosr rec %% the saving when policing can also "
              "transfer live frames at\nbackedge yieldpoints; both arms run "
              "with same-level reoptimization\ndisabled, so policing is the "
              "only repair channel. Runs are virtual-time\nexact (no "
              "repetition needed).\n");
  return 0;
}
