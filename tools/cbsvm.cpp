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
//     Execute a workload under a chosen profiler and print a one-line
//     run summary, the report document's aos, osr and repo sections
//     (each only when the run used that feature; see `report`), and
//     the hottest call edges. The workload name may also
//     be "phased" (the two-phase program used by the convergence
//     studies), which is not part of the Table 1 suite.
//       --size small|large       input size            (default small)
//       --profiler NAME          profiler from the registry
//                                (default cbs; `cbsvm --list-profilers`
//                                or `cbsvm list --profilers` to list)
//       --stride N --samples N   CBS window geometry   (default 3, 16)
//       --personality jikes|j9                         (default jikes)
//       --seed N                                       (default 1)
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
//     Execute a workload and dump the full metric registry as JSON
//     when --json is given (FILE of "-" writes to stdout), else as the
//     text view of that JSON: counters, gauges, and one section per
//     histogram.
//
//   cbsvm report <workload> [run options] [report options]
//     Execute a workload with the profiler self-observability stack
//     armed — the online quality monitor, the per-component overhead
//     attribution, and the anomaly-triggered flight recorder — then
//     build the report document (aos::buildReportJson): the convergence
//     timeline, the overhead breakdown, and any flight-recorder dumps.
//     --json writes it; otherwise it prints as text (json::writeText),
//     one table per section titled by its dotted path, so text and JSON
//     cannot disagree. When --aos is active the report also
//     carries an "aos" section (recompilations and compile-queue
//     traffic), and with deoptimization enabled a "deopt" subsection
//     (guard checks/failures, deopt count, pins, recompiles). With
//     --osr the report adds a top-level "osr" section (transfer counts
//     and graveyard reclamation); with --profile-repo a top-level
//     "repo" section (loaded/rejected/runs/committed + diagnostic).
//     A trapped run prints the trap message and exits 1 in every mode.
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
// ArgParser::finish() once it has pulled everything it understands. A
// file that cannot be written (FILE of --json, --save, --trace,
// --metrics-json, a fuzz artifact) is an error too: exit 2 with
// "cannot write 'FILE'", and so is a failed write to standard output
// (checked once the command returns: exit 2 with "cannot write
// standard output"). A command-line mistake prints its diagnostic and
// the usage line; a file that cannot be read or written, or does not
// decode (compare's profiles, a --replay artifact), prints its
// diagnostic alone. Both exit 2.
//
// The run wiring behind `run`, `stats` and `report` (workload and VM
// options, profile repository, adaptive system, report inputs) lives in
// experiments/RunDriver.h, shared with the determinism matrix test.
//
//===----------------------------------------------------------------------===//

#include "aos/ReportJson.h"
#include "bytecode/Printer.h"
#include "experiments/Experiments.h"
#include "experiments/RunDriver.h"
#include "fuzz/Fuzzer.h"
#include "profiling/OverlapMetric.h"
#include "profiling/ProfileCodec.h"
#include "profiling/ProfilerRegistry.h"
#include "support/ArgParser.h"
#include "support/Json.h"
#include "telemetry/FlightRecorder.h"
#include "telemetry/MetricRegistry.h"
#include "telemetry/TraceSink.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

using namespace cbs;

namespace {

/// A file the command reads or writes is missing, unreadable or
/// malformed. The command line itself was right, so only the diagnostic
/// prints.
[[noreturn]] void dataError(const std::string &Message) {
  std::fprintf(stderr, "cbsvm: %s\n", Message.c_str());
  std::exit(2);
}

/// The command line is wrong: the diagnostic, then the usage line.
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

std::string readFileOrDie(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    dataError("cannot read '" + Path + "'");
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

void writeFileOrDie(const std::string &Path, const std::string &Contents) {
  std::ofstream Out(Path);
  if (Out) {
    Out << Contents;
    Out.flush();
  }
  if (!Out)
    dataError("cannot write '" + Path + "'");
}

/// --json FILE|-: \p Json to stdout ("-") or to FILE, announced as
/// \p What.
void emitJson(const std::string &Path, const std::string &Json,
              const char *What) {
  if (Path == "-") {
    std::fputs(Json.c_str(), stdout);
    std::fputc('\n', stdout);
    return;
  }
  writeFileOrDie(Path, Json);
  std::printf("%s written to %s\n", What, Path.c_str());
}

/// Prints a trapped run's trap message; returns the exit status.
int reportTrap(const vm::VirtualMachine &VM) {
  std::fprintf(stderr, "trap: %s\n", VM.trapMessage().c_str());
  return 1;
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
  exp::RunSetup S = exp::parseRunSetup(Args);
  size_t Edges = Args.optionUInt("--edges", 15, 1, 1 << 20);
  bool WantAccuracy = Args.flag("--accuracy");
  std::string SavePath = Args.option("--save", "");
  std::string TracePath = Args.option("--trace", "");
  std::string MetricsPath = Args.option("--metrics-json", "");
  Args.finish();

  tel::ChromeTraceSink Sink;
  if (!TracePath.empty()) {
    S.Config.Trace = &Sink;
    const bc::Program &P = S.P;
    Sink.setMethodNamer([&P](uint32_t M) {
      return M < P.numMethods() ? P.qualifiedName(M) : std::string();
    });
  }

  exp::DriverRun Run(S);
  vm::VirtualMachine &VM = Run.vm();
  vm::RunState State = Run.run();
  std::printf("%s-%s: %s after %.2fM cycles (%.2fM instructions, %llu "
              "calls, %llu ticks, %llu samples)\n",
              S.Name.c_str(), wl::inputSizeName(S.Size),
              vm::runStateName(State),
              VM.stats().Cycles / 1e6, VM.stats().Instructions / 1e6,
              static_cast<unsigned long long>(VM.stats().CallsExecuted),
              static_cast<unsigned long long>(VM.stats().TimerTicks),
              static_cast<unsigned long long>(VM.stats().SamplesTaken));
  if (State == vm::RunState::Trapped)
    return reportTrap(VM);

  // The report document's aos, osr and repo sections (each present only
  // when the run used that feature).
  json::JsonValue Sections = *json::parseJson(
      aos::buildReportJson(Run.reportInputs())).Value;
  std::erase_if(Sections.Members, [](const auto &Member) {
    return Member.first != "aos" && Member.first != "osr" &&
           Member.first != "repo";
  });
  std::string Text = json::writeText(Sections);
  if (!Text.empty())
    std::printf("\n%s", Text.c_str());

  prof::DCGSnapshot DCG = VM.profile();
  std::printf("\n%s", DCG.str(S.P, Edges).c_str());

  if (WantAccuracy) {
    exp::PerfectProfile Perfect =
        exp::runPerfect(S.P, S.Config.Pers, S.Config.Seed);
    double Overhead =
        100.0 *
        (static_cast<double>(VM.stats().Cycles) -
         static_cast<double>(Perfect.BaseCycles)) /
        static_cast<double>(Perfect.BaseCycles);
    std::printf("\naccuracy (overlap vs exhaustive): %.1f%%   overhead: "
                "%.2f%%\n",
                prof::accuracy(DCG, Perfect.DCG), Overhead);
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
  exp::RunSetup S = exp::parseRunSetup(Args);
  std::string JsonPath = Args.option("--json", "");
  Args.finish();

  exp::DriverRun Run(S);
  vm::VirtualMachine &VM = Run.vm();
  vm::RunState State = Run.run();
  if (State == vm::RunState::Trapped)
    return reportTrap(VM);

  std::string Json = VM.metrics().toJson();
  if (JsonPath.empty())
    std::printf("%s-%s: %s\n\n%s", S.Name.c_str(), wl::inputSizeName(S.Size),
                vm::runStateName(State),
                json::writeText(*json::parseJson(Json).Value).c_str());
  else
    emitJson(JsonPath, Json, "metrics");
  return 0;
}

int cmdReport(ArgParser &Args) {
  exp::RunSetup S = exp::parseRunSetup(Args);
  tel::FlightRecorder Recorder(exp::parseReportOptions(Args, S));
  std::string JsonPath = Args.option("--json", "");
  Args.finish();

  S.Config.Recorder = &Recorder;
  exp::DriverRun Run(S);
  vm::RunState State = Run.run();
  std::string Json = aos::buildReportJson(Run.reportInputs());
  if (JsonPath.empty())
    std::fputs(json::writeText(*json::parseJson(Json).Value).c_str(), stdout);
  else
    emitJson(JsonPath, Json, "report");
  return State == vm::RunState::Trapped ? reportTrap(Run.vm()) : 0;
}

int cmdDisasm(ArgParser &Args) {
  std::string Name = Args.positional("workload name");
  const wl::WorkloadInfo *W = wl::findWorkload(Name);
  if (!W)
    usageError("unknown workload '" + Name + "'");
  bc::Program P = W->Build(exp::parseSizeOption(Args), /*Seed=*/1);
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
    // The codec accepts v1 saves and v2 repository entries alike, so
    // `compare` works on anything the tool ever wrote.
    prof::ProfileCodec::Decoded R =
        prof::ProfileCodec::decode(readFileOrDie(Path));
    if (!R.ok())
      dataError(Path + ": " + R.Error);
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
  std::string MetricsPath = Args.option("--metrics-json", "");
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
    std::string Error;
    fuzz::Artifact A = fuzz::parseArtifact(readFileOrDie(ReplayPath), Error);
    if (!Error.empty())
      dataError(ReplayPath + ": " + Error);
    std::string Message = fuzz::replayArtifact(A, Registry, Error);
    if (!Error.empty())
      dataError(ReplayPath + ": " + Error);
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
  // A violation whose artifact is lost cannot be replayed: that is a
  // failed write, not a finding.
  if (!Report.UnwrittenArtifacts.empty())
    dataError("cannot write '" + Report.UnwrittenArtifacts.front() + "'");
  return Report.clean() ? 0 : 1;
}

int cmdJsonCheck(ArgParser &Args) {
  std::string Path = Args.positional("json file");
  Args.finish();
  json::JsonParseResult R = json::parseJson(readFileOrDie(Path));
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
  static const std::pair<const char *, int (*)(ArgParser &)> Commands[] = {
      {"list", cmdList},         {"run", cmdRun},
      {"stats", cmdStats},       {"report", cmdReport},
      {"disasm", cmdDisasm},     {"compare", cmdCompare},
      {"jsoncheck", cmdJsonCheck}, {"fuzz", cmdFuzz}};
  int Status = -1;
  if (Command == "--list-profilers")
    Status = listProfilers();
  for (const auto &[Name, Run] : Commands)
    if (Command == Name) {
      ArgParser Args = makeParser(Argc - 1, Argv + 1);
      Status = Run(Args);
    }
  if (Status < 0)
    usageError("unknown command '" + Command + "'");
  // Standard output is buffered: a failed write (a full device, a closed
  // pipe) surfaces only here, and is an error like a failed file write.
  if (std::fflush(stdout) != 0 || std::ferror(stdout)) {
    std::fprintf(stderr, "cbsvm: cannot write standard output\n");
    return 2;
  }
  return Status;
}
