//===- tools/cbsvm.cpp - command-line driver ------------------------------------===//
//
// Part of the CBSVM project.
//
// A command-line front end over the library:
//
//   cbsvm list
//     List the built-in workloads.
//
//   cbsvm run <workload> [options]
//     Execute a workload under a chosen profiler and report the run
//     statistics and the hottest call edges. The workload name may also
//     be "phased" (the two-phase program used by the convergence
//     studies), which is not part of the Table 1 suite.
//       --size small|large       input size            (default small)
//       --profiler NAME          profiler from the registry
//                                (default cbs; `cbsvm --list-profilers`
//                                or `cbsvm list --profilers` to list)
//       --stride N --samples N   CBS window geometry   (default 3, 16)
//       --personality jikes|j9                         (default jikes)
//       --seed N                                       (default 1)
//       --dcg-shards N           profile repo shards   (default 1)
//       --buffer-capacity N      per-thread sample buf (default 256)
//       --decay-ticks N          decay profile every N ticks (default 0)
//       --decay-factor F         decay multiplier      (default 0.8)
//       --aos                    attach the adaptive optimization
//                                system (NewJikes inline oracle): hot
//                                methods recompile through the
//                                background compile queue
//       --compile-jobs N         compile worker threads (implies
//                                --aos; 0 = compile on the VM thread
//                                at the install point; any N is
//                                byte-identical to 0)
//       --compile-latency-scale F  scale the modelled compile latency
//                                (implies --aos; 0 installs at the
//                                first taken yieldpoint after the
//                                promotion decision)
//       --deopt-threshold PCT    police speculation guards: deoptimize
//                                a method whose assumed callee falls
//                                below PCT of its site's current
//                                profile weight (implies --aos and
//                                enables deoptimization; plain --aos
//                                leaves it off)
//       --max-deopts N           deopts per method before it is pinned
//                                to the conservative no-speculation
//                                plan (implies --aos + deopt; default 3)
//       --osr                    on-stack replacement at yieldpoints
//                                (implies --aos): frames on stale
//                                versions transfer to the newest
//                                installed version at their next taken
//                                loop-header backedge, and deopted
//                                frames transfer off invalidated code
//                                instead of limping at baseline speed
//       --profile-repo DIR       persistent cross-run profile
//                                repository (implies --aos): load the
//                                workload's merged profile from DIR to
//                                warm-start the adaptive system (inline
//                                plan + pre-enqueued hot-method
//                                compiles at cycle 0), and commit this
//                                run's profile back at shutdown. An
//                                entry whose program hash or profiler
//                                personality mismatches is skipped with
//                                a diagnostic (repo.rejected gauge),
//                                never trusted
//       --edges N                top edges to print    (default 15)
//       --save FILE              write the profile (cbsvm-dcg format)
//       --trace FILE             write a Chrome trace_event JSON trace
//       --metrics-json FILE      write the metric registry as JSON
//       --accuracy               also run exhaustively and score the
//                                sampled profile with the overlap metric
//
//   cbsvm stats <workload> [run options] [--json FILE]
//     Execute a workload and dump the full metric registry (every
//     counter, gauge, and histogram) as an aligned table, or as JSON
//     when --json is given (FILE of "-" writes to stdout).
//
//   cbsvm report <workload> [run options] [report options]
//     Execute a workload with the profiler self-observability stack
//     armed — the online quality monitor, the per-component overhead
//     attribution, and the anomaly-triggered flight recorder — then
//     print the convergence timeline, the overhead breakdown, and any
//     flight-recorder dumps. When --aos is active the report also
//     carries an "aos" section (recompilations and compile-queue
//     traffic), and with deoptimization enabled a "deopt" subsection
//     (guard checks/failures, deopt count, pins, recompiles). With
//     --osr the report adds a top-level "osr" section (transfer counts
//     and graveyard reclamation); with --profile-repo a top-level
//     "repo" section (loaded/rejected/runs/committed + diagnostic).
//     Accepts every `run` configuration option above, plus:
//       --every-ticks N          quality window period (default 8)
//       --hot-edges N            hot set size for churn (default 16)
//       --phase-threshold PCT    overlap below this is a phase shift
//                                (default 50)
//       --overhead-budget PCT    overhead above this trips the budget
//                                trigger (default 0 = disabled)
//       --drop-spike N           dropped samples per window that count
//                                as a spike (default 256)
//       --ring N                 flight-recorder event ring (default 256)
//       --json FILE              machine-readable report ("-" = stdout)
//
//   cbsvm disasm <workload> [--size small|large] [--method NAME]
//     Disassemble a workload (or one method of it).
//
//   cbsvm compare <fileA> <fileB>
//     Overlap percentage between two saved profiles.
//
//   cbsvm jsoncheck <file>
//     Validate that a file parses as JSON (used by scripts/check.sh).
//
//   cbsvm fuzz [options]
//     Differential fuzzing campaign: generate seeded random programs
//     and check every invariant oracle; violations are delta-debugged
//     and written as replayable JSON artifacts. Exits nonzero if any
//     oracle was violated.
//       --runs N                 programs to generate  (default 100)
//       --seed N                 first seed            (default 1)
//       --jobs N                 worker threads        (default 1)
//       --oracle ID              check only this oracle
//       --artifact-dir DIR       where violation artifacts go
//       --no-reduce              skip delta-debugging of violations
//       --threads                multi-threaded program shape
//       --long-loops             long-loop program shape (the preset
//                                the osr-stability oracle favours)
//       --max-methods N          method-DAG ceiling
//       --max-steps N            per-method body-step ceiling
//       --max-call-repeat N      main-call repeat ceiling (phase shift)
//       --broken-oracle          also register the deliberately broken
//                                test oracle (exercises the reducer)
//       --metrics-json FILE      write fuzz.* counters as JSON
//       --list-oracles           print oracle ids and exit
//       --replay FILE            re-run one artifact instead of a
//                                campaign; exits 0 iff it reproduces
//
// Unknown or unconsumed arguments are an error: every subcommand calls
// ArgParser::finish() once it has pulled everything it understands.
//
//===----------------------------------------------------------------------===//

#include "aos/AdaptiveSystem.h"
#include "aos/ReportJson.h"
#include "bytecode/Printer.h"
#include "experiments/Experiments.h"
#include "fuzz/Fuzzer.h"
#include "profiling/OverlapMetric.h"
#include "profiling/ProfileCodec.h"
#include "profiling/ProfileRepository.h"
#include "profiling/ProfilerRegistry.h"
#include "support/ArgParser.h"
#include "support/Json.h"
#include "support/TablePrinter.h"
#include "telemetry/FlightRecorder.h"
#include "telemetry/MetricRegistry.h"
#include "telemetry/TraceSink.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace cbs;

namespace {

[[noreturn]] void usageError(const std::string &Message) {
  std::fprintf(stderr, "cbsvm: %s\n", Message.c_str());
  std::fprintf(stderr,
               "usage: cbsvm list | run <workload> [options] | "
               "stats <workload> [options] | report <workload> [options] | "
               "disasm <workload> | compare <a> <b> | jsoncheck <file> | "
               "fuzz [options]\n");
  std::exit(2);
}

using support::ArgParser;

/// The shared strict parser, with errors routed to the driver's usage
/// message.
ArgParser makeParser(int Argc, char **Argv) {
  ArgParser Args(Argc, Argv);
  Args.setErrorHandler([](const std::string &M) { usageError(M); });
  return Args;
}

wl::InputSize parseSize(const std::string &S) {
  if (S == "small")
    return wl::InputSize::Small;
  if (S == "large")
    return wl::InputSize::Large;
  if (S == "steady")
    return wl::InputSize::Steady;
  usageError("unknown size '" + S + "'");
}

/// --metrics-json FILE, shared by `run` and `fuzz`: where to dump the
/// metric registry as JSON ("" = don't).
class MetricsJsonOptionGroup : public support::OptionGroup {
public:
  std::string Path;

  const char *name() const override { return "metrics-json"; }
  void parse(ArgParser &Args) override {
    Path = Args.option("--metrics-json", "");
  }
};

/// Workload + VM configuration shared by `run`, `stats`, and `report`.
struct RunSetup {
  std::string Name;
  wl::InputSize Size = wl::InputSize::Small;
  vm::Personality Pers = vm::Personality::JikesRVM;
  uint64_t Seed = 1;
  bc::Program P;
  vm::VMConfig Config;
  /// --aos (or an option implying it): attach the adaptive system so
  /// hot methods recompile through the background compile queue.
  bool UseAOS = false;
  aos::AOSConfig AOS;
  /// --profile-repo DIR: warm-start from (and commit to) the
  /// cross-run profile repository. Empty = disabled.
  std::string RepoDir;
};

RunSetup parseRunSetup(ArgParser &Args) {
  RunSetup S;
  S.Name = Args.positional("workload name");
  // "phased" is the two-phase convergence-study program — deliberately
  // not part of the Table 1 suite, but the natural input for the
  // quality monitor, so the driver accepts it everywhere a workload
  // name is expected.
  const wl::WorkloadInfo *W = wl::findWorkload(S.Name);
  if (!W && S.Name != "phased")
    usageError("unknown workload '" + S.Name + "' (try 'cbsvm list')");

  S.Size = parseSize(Args.option("--size", "small"));
  // The shared option groups: the VM group (--personality, --seed,
  // --profiler and its knobs, --osr), the AOS group (--aos,
  // --compile-jobs, --compile-latency-scale, --deopt-threshold,
  // --max-deopts), and the profile repository (--profile-repo). Each
  // option is declared once, in its group, for every subcommand.
  vm::VMOptionGroup VMOpts;
  aos::AOSOptionGroup AOSOpts;
  prof::ProfileRepoOptionGroup RepoOpts;
  support::applyGroups(Args, {&VMOpts, &AOSOpts, &RepoOpts});

  S.Config = std::move(VMOpts.Config);
  S.Pers = S.Config.Pers;
  S.Seed = S.Config.Seed;

  S.P = W ? W->Build(S.Size, S.Seed) : wl::buildPhased(S.Size, S.Seed);
  exp::applyJitOnly(S.P, S.Config);

  AOSOpts.finalize(S.Config);
  S.UseAOS = AOSOpts.UseAOS;
  S.AOS = AOSOpts.Config;
  // Warm start is an AOS feature, so the repository implies --aos.
  S.RepoDir = RepoOpts.Dir;
  if (!S.RepoDir.empty())
    S.UseAOS = true;
  return S;
}

/// The adaptive system a command attaches when --aos was given. The
/// oracle must outlive the system and the system must outlive the VM
/// run, so both live together in the command's frame, declared before
/// the VirtualMachine.
struct DriverAOS {
  opt::NewJikesOracle Oracle;
  std::unique_ptr<aos::AdaptiveSystem> System;

  void attach(const RunSetup &S, vm::VirtualMachine &VM) {
    if (!S.UseAOS)
      return;
    System = std::make_unique<aos::AdaptiveSystem>(&Oracle, S.AOS);
    VM.setClient(System.get());
  }
};

/// Driver-side profile-repository wiring shared by run/stats/report.
/// setup() must run before the VirtualMachine is constructed (it plants
/// VMConfig::OnShutdown and the warm-start profile), and the object must
/// outlive the run (the shutdown hook points back into it).
struct DriverRepo {
  std::unique_ptr<prof::ProfileRepository> Repo;
  prof::RepoKey Key;
  prof::RepoLoadResult Load;
  prof::RepoCommitResult Commit;
  bool Enabled = false;

  /// Loads the run's entry (warm-starting the AOS on a hit, printing
  /// the diagnostic on a rejection) and plants the shutdown hook that
  /// commits the run's profile and publishes the repo.* gauges.
  void setup(RunSetup &S) {
    if (S.RepoDir.empty())
      return;
    Enabled = true;
    Repo = std::make_unique<prof::ProfileRepository>(S.RepoDir);
    Key.Workload = S.Name;
    Key.ProgramHash = S.P.contentHash();
    Key.Personality = S.Pers == vm::Personality::JikesRVM ? "jikes" : "j9";
    Load = Repo->load(Key);
    if (Load.ok())
      S.AOS.WarmStart.Profile =
          std::make_shared<const prof::DCGSnapshot>(Load.Entry->Graph);
    else if (Load.Rejected)
      std::fprintf(stderr, "cbsvm: profile-repo: %s\n",
                   Load.Diagnostic.c_str());
    S.Config.OnShutdown = [this](vm::VirtualMachine &VM) {
      // Commit only a cleanly finished run: a trapped/halted/limited
      // run's profile is partial evidence of a program that didn't
      // complete, and persisting it would poison later warm starts.
      if (VM.state() == vm::RunState::Finished) {
        Commit = Repo->commit(Key, VM.profile(), VM.cycles());
        if (!Commit.Error.empty())
          std::fprintf(stderr, "cbsvm: profile-repo: %s\n",
                       Commit.Error.c_str());
      }
      publishGauges(VM);
    };
  }

  /// repo.* gauges, registered at shutdown so every metrics surface
  /// (--metrics-json, stats --json) reports the repository interaction.
  void publishGauges(vm::VirtualMachine &VM) {
    tel::MetricRegistry &R = VM.metricsRegistry();
    R.gauge("repo.loaded") = Load.ok() ? 1 : 0;
    R.gauge("repo.rejected") = Load.Rejected ? 1 : 0;
    R.gauge("repo.runs") = Load.ok() ? Load.Entry->Meta.Runs : 0;
    R.gauge("repo.committed") = Commit.Committed ? 1 : 0;
  }

  /// The report section (emitted only when --profile-repo was given).
  aos::RepoReport report(const RunSetup &S) const {
    aos::RepoReport R;
    R.Present = Enabled;
    R.Dir = S.RepoDir;
    R.Loaded = Load.ok() ? 1 : 0;
    R.Rejected = Load.Rejected ? 1 : 0;
    R.Runs = Load.ok() ? Load.Entry->Meta.Runs : 0;
    R.Committed = Commit.Committed ? 1 : 0;
    R.Diagnostic = Load.Rejected ? Load.Diagnostic : Commit.Error;
    return R;
  }
};

void writeFileOrDie(const std::string &Path, const std::string &Contents) {
  std::ofstream Out(Path);
  if (!Out)
    usageError("cannot write '" + Path + "'");
  Out << Contents;
}

int listProfilers() {
  std::printf("profilers (--profiler NAME):\n");
  for (const prof::ProfilerDescriptor &D :
       prof::ProfilerRegistry::instance().all())
    std::printf("  %-12s %s%s\n", D.Name, D.Summary,
                D.Sampling ? " [--stride/--samples apply]" : "");
  return 0;
}

int cmdList(ArgParser &Args) {
  if (Args.flag("--profilers")) {
    Args.finish();
    return listProfilers();
  }
  Args.finish();
  std::printf("built-in workloads (Table 1 suite):\n");
  for (const wl::WorkloadInfo &W : wl::suite())
    std::printf("  %-10s %s\n", W.Name,
                W.Multithreaded ? "(multithreaded)" : "");
  std::printf("see also: the phase-shift program 'phased' (accepted by "
              "run/stats/report), and figure1 / adversary programs via "
              "the library API\n");
  return 0;
}

int cmdRun(ArgParser &Args) {
  RunSetup S = parseRunSetup(Args);
  size_t Edges = Args.optionUInt("--edges", 15, 1, 1 << 20);
  bool WantAccuracy = Args.flag("--accuracy");
  std::string SavePath = Args.option("--save", "");
  std::string TracePath = Args.option("--trace", "");
  MetricsJsonOptionGroup MetricsOpt;
  support::applyGroups(Args, {&MetricsOpt});
  std::string MetricsPath = MetricsOpt.Path;
  Args.finish();

  tel::ChromeTraceSink Sink;
  if (!TracePath.empty())
    S.Config.Trace = &Sink;

  DriverRepo Repo;
  Repo.setup(S);
  DriverAOS AOS;
  vm::VirtualMachine VM(S.P, S.Config);
  AOS.attach(S, VM);
  if (!TracePath.empty()) {
    const bc::Program &P = VM.program();
    Sink.setMethodNamer([&P](uint32_t M) {
      return M < P.numMethods() ? P.qualifiedName(M) : std::string();
    });
  }
  vm::RunState State = VM.run();
  std::printf("%s-%s: %s after %.2fM cycles (%.2fM instructions, %llu "
              "calls, %llu ticks, %llu samples)\n",
              S.Name.c_str(), wl::inputSizeName(S.Size),
              vm::runStateName(State),
              VM.stats().Cycles / 1e6, VM.stats().Instructions / 1e6,
              static_cast<unsigned long long>(VM.stats().CallsExecuted),
              static_cast<unsigned long long>(VM.stats().TimerTicks),
              static_cast<unsigned long long>(VM.stats().SamplesTaken));
  if (State == vm::RunState::Trapped) {
    std::fprintf(stderr, "trap: %s\n", VM.trapMessage().c_str());
    return 1;
  }

  if (S.UseAOS) {
    const aos::AOSStats &A = AOS.System->stats();
    std::printf("aos: %llu installs (%llu to L1, %llu to L2, %llu reopts); "
                "queue: %llu enqueued, %llu coalesced, %llu stale drops, "
                "%llu dropped, depth %zu at exit\n",
                static_cast<unsigned long long>(A.QueueInstalls),
                static_cast<unsigned long long>(A.PromotionsToL1),
                static_cast<unsigned long long>(A.PromotionsToL2),
                static_cast<unsigned long long>(A.Reoptimizations),
                static_cast<unsigned long long>(A.QueueEnqueued),
                static_cast<unsigned long long>(A.QueueCoalesced),
                static_cast<unsigned long long>(A.QueueStaleDrops),
                static_cast<unsigned long long>(A.QueueDropped),
                AOS.System->queueDepth());
    if (AOS.System->warmStarted())
      std::printf("warm start: %llu pre-enqueued, %llu installed; first "
                  "install at cycle %llu\n",
                  static_cast<unsigned long long>(A.WarmEnqueued),
                  static_cast<unsigned long long>(A.WarmInstalls),
                  static_cast<unsigned long long>(A.FirstInstallCycle));
    if (const aos::DeoptController *DC = AOS.System->deoptController()) {
      const aos::DeoptStats &D = DC->stats();
      std::printf("deopt: %llu guard checks, %llu guard failures, %llu "
                  "deopts (%llu phase-shift), %llu pins, %llu stale "
                  "drops, %llu recompiles\n",
                  static_cast<unsigned long long>(D.GuardChecks),
                  static_cast<unsigned long long>(D.GuardFailures),
                  static_cast<unsigned long long>(D.Deopts),
                  static_cast<unsigned long long>(D.PhaseShiftDeopts),
                  static_cast<unsigned long long>(D.ConservativePins),
                  static_cast<unsigned long long>(D.StaleRequestsDropped),
                  static_cast<unsigned long long>(D.Recompiles));
    }
  }

  if (S.Config.EnableOSR) {
    const tel::MetricRegistry &M = VM.metrics();
    auto Counter = [&M](const char *Name) {
      const tel::Counter *C = M.findCounter(Name);
      return C ? static_cast<unsigned long long>(*C) : 0ull;
    };
    auto Gauge = [&M](const char *Name) {
      const tel::Gauge *G = M.findGauge(Name);
      return G ? static_cast<unsigned long long>(*G) : 0ull;
    };
    std::printf("osr: %llu promotions, %llu deopt exits; graveyard: %llu "
                "instructions reclaimed across %llu frees, %llu retained\n",
                Counter("vm.osr_entries"), Counter("vm.osr_exits"),
                Gauge("code.graveyard_reclaimed_instructions"),
                Gauge("code.graveyard_reclaims"),
                Gauge("code.graveyard_instructions"));
  }

  prof::DCGSnapshot DCG = VM.profile();
  std::printf("\n%s", DCG.str(S.P, Edges).c_str());

  if (WantAccuracy) {
    exp::PerfectProfile Perfect = exp::runPerfect(S.P, S.Pers, S.Seed);
    double Overhead =
        100.0 *
        (static_cast<double>(VM.stats().Cycles) -
         static_cast<double>(Perfect.BaseCycles)) /
        static_cast<double>(Perfect.BaseCycles);
    std::printf("\naccuracy (overlap vs exhaustive): %.1f%%   overhead: "
                "%.2f%%\n",
                prof::accuracy(DCG, Perfect.DCG), Overhead);
  }

  if (Repo.Enabled) {
    aos::RepoReport RR = Repo.report(S);
    std::printf("repo: loaded=%llu rejected=%llu runs=%llu committed=%llu "
                "(%s)\n",
                static_cast<unsigned long long>(RR.Loaded),
                static_cast<unsigned long long>(RR.Rejected),
                static_cast<unsigned long long>(RR.Runs),
                static_cast<unsigned long long>(RR.Committed),
                S.RepoDir.c_str());
  }

  if (!SavePath.empty()) {
    writeFileOrDie(SavePath, prof::ProfileCodec::encode(DCG));
    std::printf("\nprofile written to %s\n", SavePath.c_str());
  }
  if (!TracePath.empty()) {
    writeFileOrDie(TracePath, Sink.str());
    std::printf("trace written to %s (%zu events)\n", TracePath.c_str(),
                Sink.numEvents());
  }
  if (!MetricsPath.empty()) {
    writeFileOrDie(MetricsPath, VM.metrics().toJson());
    std::printf("metrics written to %s\n", MetricsPath.c_str());
  }
  return 0;
}

int cmdStats(ArgParser &Args) {
  RunSetup S = parseRunSetup(Args);
  std::string JsonPath = Args.option("--json", "");
  Args.finish();

  DriverRepo Repo;
  Repo.setup(S);
  DriverAOS AOS;
  vm::VirtualMachine VM(S.P, S.Config);
  AOS.attach(S, VM);
  vm::RunState State = VM.run();
  if (State == vm::RunState::Trapped) {
    std::fprintf(stderr, "trap: %s\n", VM.trapMessage().c_str());
    return 1;
  }

  if (JsonPath.empty()) {
    std::printf("%s-%s: %s\n\n%s", S.Name.c_str(), wl::inputSizeName(S.Size),
                vm::runStateName(State), VM.metrics().toText().c_str());
  } else if (JsonPath == "-") {
    std::fputs(VM.metrics().toJson().c_str(), stdout);
    std::fputc('\n', stdout);
  } else {
    writeFileOrDie(JsonPath, VM.metrics().toJson());
    std::printf("metrics written to %s\n", JsonPath.c_str());
  }
  return 0;
}

int cmdReport(ArgParser &Args) {
  RunSetup S = parseRunSetup(Args);
  S.Config.Profiler.Quality.EveryTicks = static_cast<uint32_t>(
      Args.optionUInt("--every-ticks", 8, 1, UINT32_MAX));
  S.Config.Profiler.Quality.HotEdges =
      Args.optionUInt("--hot-edges", 16, 1, 1 << 20);
  S.Config.Profiler.Quality.PhaseShiftOverlapPct =
      Args.optionDouble("--phase-threshold", 50.0, 0.0, 100.0);

  tel::FlightRecorderConfig RC;
  RC.OverheadBudgetPct =
      Args.optionDouble("--overhead-budget", 0.0, 0.0, 100.0);
  RC.DropSpikeThreshold =
      Args.optionUInt("--drop-spike", 256, 0, UINT64_MAX);
  RC.EventCapacity = Args.optionUInt("--ring", 256, 1, 1 << 20);
  std::string JsonPath = Args.option("--json", "");
  Args.finish();

  tel::FlightRecorder Recorder(RC);
  S.Config.Recorder = &Recorder;

  DriverRepo Repo;
  Repo.setup(S);
  DriverAOS AOS;
  vm::VirtualMachine VM(S.P, S.Config);
  AOS.attach(S, VM);
  vm::RunState State = VM.run();
  Recorder.requestDump("end_of_run", VM.cycles());

  const prof::ProfileQualityMonitor &Monitor = *VM.qualityMonitor();
  const tel::MetricRegistry &Metrics = VM.metrics();
  uint64_t VmCycles = VM.cycles();
  uint64_t OvTotal = VM.overheadCycles();
  auto FractionPct = [VmCycles](uint64_t Cycles) {
    return VmCycles == 0
               ? 0.0
               : 100.0 * static_cast<double>(Cycles) /
                     static_cast<double>(VmCycles);
  };

  if (!JsonPath.empty()) {
    aos::ReportInputs In;
    In.Workload = S.Name;
    In.Size = wl::inputSizeName(S.Size);
    In.Seed = S.Seed;
    In.State = vm::runStateName(State);
    In.VM = &VM;
    In.AOS = S.UseAOS ? AOS.System.get() : nullptr;
    In.Recorder = &Recorder;
    In.Repo = Repo.report(S);
    std::string Json = aos::buildReportJson(In);
    if (JsonPath == "-") {
      std::fputs(Json.c_str(), stdout);
      std::fputc('\n', stdout);
    } else {
      writeFileOrDie(JsonPath, Json);
      std::printf("report written to %s\n", JsonPath.c_str());
    }
    return State == vm::RunState::Trapped ? 1 : 0;
  }

  std::printf("%s-%s: %s after %.2fM cycles (%llu windows, %llu phase "
              "shifts, %s)\n\n",
              S.Name.c_str(), wl::inputSizeName(S.Size),
              vm::runStateName(State), VmCycles / 1e6,
              static_cast<unsigned long long>(Monitor.windowCount()),
              static_cast<unsigned long long>(Monitor.phaseShiftCount()),
              Monitor.converged() ? "converged" : "not converged");

  std::printf("profile quality timeline (window every %u ticks, phase "
              "threshold %.0f%%):\n",
              Monitor.params().EveryTicks,
              Monitor.params().PhaseShiftOverlapPct);
  TablePrinter Quality;
  Quality.setHeader({"window", "tick", "cycles", "edges", "weight",
                     "overlap%", "hot+", "hot-", "conf%", "shift"});
  for (const prof::QualityWindow &QW : Monitor.history())
    Quality.addRow({std::to_string(QW.Index), std::to_string(QW.Tick),
                    std::to_string(QW.Cycles), std::to_string(QW.Edges),
                    std::to_string(QW.TotalWeight),
                    TablePrinter::formatDouble(QW.OverlapPct, 1),
                    std::to_string(QW.HotNew), std::to_string(QW.HotVanished),
                    TablePrinter::formatDouble(QW.MeanConfidencePct, 1),
                    QW.PhaseShift ? "SHIFT" : ""});
  std::fputs(Quality.render().c_str(), stdout);

  std::printf("\noverhead attribution:\n");
  TablePrinter Overhead;
  Overhead.setHeader({"component", "cycles", "% of run"});
  for (const char *Name : aos::OverheadComponentNames) {
    const tel::Counter *C = Metrics.findCounter(Name);
    uint64_t Cycles = C ? static_cast<uint64_t>(*C) : 0;
    Overhead.addRow({Name, std::to_string(Cycles),
                     TablePrinter::formatDouble(FractionPct(Cycles), 3)});
  }
  Overhead.addSeparator();
  Overhead.addRow({"total", std::to_string(OvTotal),
                   TablePrinter::formatDouble(FractionPct(OvTotal), 3)});
  std::fputs(Overhead.render().c_str(), stdout);

  if (S.UseAOS) {
    const aos::AOSStats &A = AOS.System->stats();
    std::printf("\nadaptive system (compile queue):\n");
    TablePrinter Queue;
    Queue.setHeader({"installs", "to L1", "to L2", "reopts", "enqueued",
                     "coalesced", "stale", "dropped", "depth"});
    Queue.addRow({std::to_string(A.QueueInstalls),
                  std::to_string(A.PromotionsToL1),
                  std::to_string(A.PromotionsToL2),
                  std::to_string(A.Reoptimizations),
                  std::to_string(A.QueueEnqueued),
                  std::to_string(A.QueueCoalesced),
                  std::to_string(A.QueueStaleDrops),
                  std::to_string(A.QueueDropped),
                  std::to_string(AOS.System->queueDepth())});
    std::fputs(Queue.render().c_str(), stdout);
    if (AOS.System->warmStarted())
      std::printf("warm start: %llu pre-enqueued, %llu installed; first "
                  "install at cycle %llu\n",
                  static_cast<unsigned long long>(A.WarmEnqueued),
                  static_cast<unsigned long long>(A.WarmInstalls),
                  static_cast<unsigned long long>(A.FirstInstallCycle));
    if (const aos::DeoptController *DC = AOS.System->deoptController()) {
      const aos::DeoptStats &D = DC->stats();
      std::printf("\ndeoptimization (guard policing):\n");
      TablePrinter Deopt;
      Deopt.setHeader({"guard checks", "failures", "deopts", "phase-shift",
                       "pins", "stale drops", "recompiles"});
      Deopt.addRow({std::to_string(D.GuardChecks),
                    std::to_string(D.GuardFailures),
                    std::to_string(D.Deopts),
                    std::to_string(D.PhaseShiftDeopts),
                    std::to_string(D.ConservativePins),
                    std::to_string(D.StaleRequestsDropped),
                    std::to_string(D.Recompiles)});
      std::fputs(Deopt.render().c_str(), stdout);
    }
  }

  if (S.Config.EnableOSR) {
    auto Counter = [&Metrics](const char *Name) {
      const tel::Counter *C = Metrics.findCounter(Name);
      return C ? static_cast<uint64_t>(*C) : 0;
    };
    auto Gauge = [&Metrics](const char *Name) {
      const tel::Gauge *G = Metrics.findGauge(Name);
      return G ? static_cast<uint64_t>(*G) : 0;
    };
    std::printf("\non-stack replacement:\n");
    TablePrinter Osr;
    Osr.setHeader({"promotions", "deopt exits", "reclaimed insns",
                   "reclaims", "graveyard insns"});
    Osr.addRow({std::to_string(Counter("vm.osr_entries")),
                std::to_string(Counter("vm.osr_exits")),
                std::to_string(Gauge("code.graveyard_reclaimed_instructions")),
                std::to_string(Gauge("code.graveyard_reclaims")),
                std::to_string(Gauge("code.graveyard_instructions"))});
    std::fputs(Osr.render().c_str(), stdout);
  }

  if (Repo.Enabled) {
    aos::RepoReport RR = Repo.report(S);
    std::printf("\nprofile repository (%s):\n"
                "  loaded=%llu rejected=%llu runs=%llu committed=%llu%s%s\n",
                S.RepoDir.c_str(),
                static_cast<unsigned long long>(RR.Loaded),
                static_cast<unsigned long long>(RR.Rejected),
                static_cast<unsigned long long>(RR.Runs),
                static_cast<unsigned long long>(RR.Committed),
                RR.Diagnostic.empty() ? "" : "\n  ",
                RR.Diagnostic.c_str());
  }

  std::printf("\nflight recorder: %llu events seen, %llu anomaly "
              "triggers, %zu dumps\n",
              static_cast<unsigned long long>(Recorder.totalEvents()),
              static_cast<unsigned long long>(Recorder.triggerCount()),
              Recorder.dumps().size());
  for (const tel::FlightRecorder::Dump &D : Recorder.dumps())
    std::printf("  [%s] at cycle %llu: %zu events, %zu windows retained\n",
                D.Trigger.c_str(),
                static_cast<unsigned long long>(D.Cycles), D.Events.size(),
                D.Windows.size());

  if (State == vm::RunState::Trapped) {
    std::fprintf(stderr, "trap: %s\n", VM.trapMessage().c_str());
    return 1;
  }
  return 0;
}

int cmdDisasm(ArgParser &Args) {
  std::string Name = Args.positional("workload name");
  const wl::WorkloadInfo *W = wl::findWorkload(Name);
  if (!W)
    usageError("unknown workload '" + Name + "'");
  bc::Program P =
      W->Build(parseSize(Args.option("--size", "small")), /*Seed=*/1);
  std::string MethodName = Args.option("--method", "");
  Args.finish();
  if (MethodName.empty()) {
    std::fputs(bc::printProgram(P).c_str(), stdout);
    return 0;
  }
  for (bc::MethodId M = 0; M != P.numMethods(); ++M)
    if (P.qualifiedName(M) == MethodName) {
      std::fputs(bc::printMethod(P, M).c_str(), stdout);
      return 0;
    }
  usageError("no method named '" + MethodName + "'");
}

int cmdCompare(ArgParser &Args) {
  auto Load = [](const std::string &Path) {
    std::ifstream In(Path);
    if (!In)
      usageError("cannot read '" + Path + "'");
    std::ostringstream SS;
    SS << In.rdbuf();
    // The codec accepts v1 saves and v2 repository entries alike, so
    // `compare` works on anything the tool ever wrote.
    prof::ProfileCodec::Decoded R = prof::ProfileCodec::decode(SS.str());
    if (!R.ok())
      usageError(Path + ": " + R.Error);
    return *R.Graph;
  };
  std::string PathA = Args.positional("first profile");
  std::string PathB = Args.positional("second profile");
  Args.finish();
  prof::DCGSnapshot A = Load(PathA);
  prof::DCGSnapshot B = Load(PathB);
  std::printf("%-30s %zu edges, weight %llu\n", PathA.c_str(), A.numEdges(),
              static_cast<unsigned long long>(A.totalWeight()));
  std::printf("%-30s %zu edges, weight %llu\n", PathB.c_str(), B.numEdges(),
              static_cast<unsigned long long>(B.totalWeight()));
  std::printf("overlap: %.2f%%\n", prof::overlap(A, B));
  return 0;
}

int cmdFuzz(ArgParser &Args) {
  fuzz::FuzzOptions Options;
  Options.Runs =
      static_cast<unsigned>(Args.optionUInt("--runs", 100, 1, 1u << 20));
  Options.SeedBase = Args.optionUInt("--seed", 1, 0, UINT64_MAX);
  Options.Jobs =
      static_cast<unsigned>(Args.optionUInt("--jobs", 1, 1, 1024));
  Options.OracleFilter = Args.option("--oracle", "");
  Options.ArtifactDir = Args.option("--artifact-dir", "");
  Options.Reduce = !Args.flag("--no-reduce");
  if (Args.flag("--threads"))
    Options.Shape = fuzz::ShapeConfig::threaded();
  if (Args.flag("--long-loops"))
    Options.Shape = fuzz::ShapeConfig::longLoops();
  Options.Shape.MaxMethods = static_cast<uint32_t>(Args.optionUInt(
      "--max-methods", Options.Shape.MaxMethods, 1, 1u << 10));
  Options.Shape.MaxSteps = static_cast<uint32_t>(
      Args.optionUInt("--max-steps", Options.Shape.MaxSteps, 1, 1u << 10));
  Options.Shape.MaxCallRepeat = static_cast<uint32_t>(Args.optionUInt(
      "--max-call-repeat", Options.Shape.MaxCallRepeat, 1, 1u << 10));
  bool WithBroken = Args.flag("--broken-oracle");
  bool ListOracles = Args.flag("--list-oracles");
  MetricsJsonOptionGroup MetricsOpt;
  support::applyGroups(Args, {&MetricsOpt});
  std::string MetricsPath = MetricsOpt.Path;
  std::string ReplayPath = Args.option("--replay", "");
  Args.finish();

  fuzz::OracleRegistry Registry = fuzz::OracleRegistry::builtin();
  if (WithBroken)
    fuzz::addBrokenOracleForTesting(Registry);

  if (ListOracles) {
    for (const auto &O : Registry.all())
      std::printf("%-20s %s\n", O->id(), O->describe());
    return 0;
  }

  if (!ReplayPath.empty()) {
    std::ifstream In(ReplayPath);
    if (!In)
      usageError("cannot read '" + ReplayPath + "'");
    std::ostringstream SS;
    SS << In.rdbuf();
    std::string Error;
    fuzz::Artifact A = fuzz::parseArtifact(SS.str(), Error);
    if (!Error.empty())
      usageError(ReplayPath + ": " + Error);
    std::string Message = fuzz::replayArtifact(A, Registry, Error);
    if (!Error.empty())
      usageError(ReplayPath + ": " + Error);
    if (Message.empty()) {
      std::printf("%s: violation of '%s' did NOT reproduce\n",
                  ReplayPath.c_str(), A.OracleId.c_str());
      return 1;
    }
    std::printf("%s: reproduced violation of '%s' under seed %llu: %s\n",
                ReplayPath.c_str(), A.OracleId.c_str(),
                static_cast<unsigned long long>(A.Seed), Message.c_str());
    return 0;
  }

  tel::MetricRegistry Metrics;
  std::ostringstream Log;
  fuzz::FuzzReport Report = fuzz::runFuzz(Options, Registry, &Metrics, &Log);
  std::fputs(Log.str().c_str(), stdout);
  if (!MetricsPath.empty()) {
    writeFileOrDie(MetricsPath, Metrics.toJson());
    std::printf("metrics written to %s\n", MetricsPath.c_str());
  }
  return Report.clean() ? 0 : 1;
}

int cmdJsonCheck(ArgParser &Args) {
  std::string Path = Args.positional("json file");
  Args.finish();
  std::ifstream In(Path);
  if (!In)
    usageError("cannot read '" + Path + "'");
  std::ostringstream SS;
  SS << In.rdbuf();
  json::JsonParseResult R = json::parseJson(SS.str());
  if (!R.Value) {
    std::fprintf(stderr, "%s: %s\n", Path.c_str(), R.Error.c_str());
    return 1;
  }
  std::printf("%s: valid JSON\n", Path.c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    usageError("missing command");
  std::string Command = Argv[1];
  if (Command == "--list-profilers")
    return listProfilers();
  ArgParser Args = makeParser(Argc - 1, Argv + 1);
  if (Command == "list")
    return cmdList(Args);
  if (Command == "run")
    return cmdRun(Args);
  if (Command == "stats")
    return cmdStats(Args);
  if (Command == "report")
    return cmdReport(Args);
  if (Command == "disasm")
    return cmdDisasm(Args);
  if (Command == "compare")
    return cmdCompare(Args);
  if (Command == "jsoncheck")
    return cmdJsonCheck(Args);
  if (Command == "fuzz")
    return cmdFuzz(Args);
  usageError("unknown command '" + Command + "'");
}
