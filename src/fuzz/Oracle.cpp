//===- fuzz/Oracle.cpp - Differential invariant oracles --------------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Oracle.h"

#include "experiments/Experiments.h"
#include "experiments/ParallelRunner.h"
#include "opt/Compiler.h"
#include "opt/InlineOracle.h"
#include "profiling/OverlapMetric.h"
#include "profiling/ProfileCodec.h"
#include "profiling/ProfilerRegistry.h"

#include <algorithm>
#include <mutex>
#include <optional>
#include <sstream>

using namespace cbs;
using namespace cbs::fuzz;

Oracle::~Oracle() = default;

void OracleRegistry::add(std::unique_ptr<Oracle> O) {
  Oracles.push_back(std::move(O));
}

const Oracle *OracleRegistry::find(std::string_view Id) const {
  for (const std::unique_ptr<Oracle> &O : Oracles)
    if (Id == O->id())
      return O.get();
  return nullptr;
}

namespace {

/// Cycle budget for every oracle-internal run: generated programs are
/// small DAGs with bounded loops, so anything approaching this is a
/// generator bug worth flagging, not a workload.
constexpr uint64_t OracleMaxCycles = 200'000'000;

/// "finished, printed [a b c], 12 objects / 96 bytes" — the compact
/// divergence description used by violation messages.
std::string describeRun(const RunResult &R) {
  std::ostringstream OS;
  OS << vm::runStateName(R.State);
  if (!R.Trap.empty())
    OS << " (" << R.Trap << ')';
  OS << ", " << R.Output.size() << " values printed, " << R.HeapObjects
     << " objects / " << R.HeapBytes << " heap bytes";
  return OS.str();
}

/// Checks \p Candidate against \p Base; returns "" or the divergence.
std::string compareRuns(std::string_view BaseName, const RunResult &Base,
                        std::string_view CandName, const RunResult &Cand) {
  std::ostringstream OS;
  if (Cand.State != Base.State) {
    OS << CandName << " run ended " << vm::runStateName(Cand.State)
       << " but " << BaseName << " ended " << vm::runStateName(Base.State);
    return OS.str();
  }
  if (Cand.Output != Base.Output) {
    size_t I = 0;
    while (I < Cand.Output.size() && I < Base.Output.size() &&
           Cand.Output[I] == Base.Output[I])
      ++I;
    OS << CandName << " output diverges from " << BaseName << " at value "
       << I << " (" << describeRun(Cand) << " vs " << describeRun(Base)
       << ')';
    return OS.str();
  }
  if (Cand.HeapObjects != Base.HeapObjects ||
      Cand.HeapBytes != Base.HeapBytes) {
    OS << CandName << " heap stats diverge from " << BaseName << " ("
       << describeRun(Cand) << " vs " << describeRun(Base) << ')';
    return OS.str();
  }
  return "";
}

vm::VMConfig plainConfig(uint64_t Seed) {
  vm::VMConfig Config;
  Config.Seed = Seed;
  return Config;
}

vm::VMConfig exhaustiveConfig(uint64_t Seed) {
  vm::VMConfig Config = plainConfig(Seed);
  prof::ProfilerRegistry::instance().configure("exhaustive", Config.Profiler);
  return Config;
}

vm::VMConfig cbsConfig(uint64_t Seed) {
  vm::VMConfig Config = plainConfig(Seed);
  prof::ProfilerRegistry::instance().configure("cbs", Config.Profiler);
  Config.Profiler.CBS.SamplesPerTick = 64;
  Config.TimerPeriodCycles = 2'000;
  return Config;
}

/// The VM side of every AosStabilityOracle row (the row's latency is
/// its AOSConfig's).
vm::VMConfig adaptiveConfig(uint64_t Seed, bool OSR) {
  vm::VMConfig Config = plainConfig(Seed);
  Config.Profiler.Kind = vm::ProfilerKind::CBS;
  Config.Profiler.CBS.Stride = 2;
  Config.Profiler.CBS.SamplesPerTick = 4;
  // Generated programs are small: tick fast enough that promotions
  // (and thus installs) actually happen.
  Config.TimerPeriodCycles = 2'000;
  Config.EnableOSR = OSR;
  return Config;
}

} // namespace

RunResult ProgramRuns::run(vm::VMConfig Config,
                           std::optional<aos::AOSConfig> AOS) {
  ++VmRuns;
  Config.MaxCycles = std::min(Config.MaxCycles, OracleMaxCycles);
  exp::Run Wired({.P = &P, .Config = std::move(Config), .AOS = std::move(AOS)});
  vm::VirtualMachine &VM = Wired.vm();
  RunResult R;
  R.State = Wired.run();
  R.Trap = VM.trapMessage();
  R.Output = VM.output();
  R.HeapObjects = VM.heap().numObjects();
  R.HeapBytes = VM.heap().bytesAllocated();
  R.Profile = VM.profile();
  R.Samples = VM.stats().SamplesTaken;
  R.Calls = VM.stats().CallsExecuted;
  return R;
}

const RunResult &ProgramRuns::baseline() {
  if (!Baseline)
    Baseline = run(plainConfig(Seed));
  return *Baseline;
}

const RunResult &ProgramRuns::exhaustive() {
  if (!Exhaustive)
    Exhaustive = run(exhaustiveConfig(Seed));
  return *Exhaustive;
}

const RunResult &ProgramRuns::cbs(unsigned Offset) {
  auto It = Cbs.find(Offset);
  if (It == Cbs.end())
    It = Cbs.emplace(Offset, run(cbsConfig(Seed + Offset))).first;
  return It->second;
}

const RunResult &ProgramRuns::adaptive(double LatencyScale, bool OSR) {
  std::pair Key(LatencyScale, OSR);
  auto It = Adaptive.find(Key);
  if (It == Adaptive.end()) {
    aos::AOSConfig AC;
    AC.CompileLatencyScale = LatencyScale;
    It = Adaptive.emplace(Key, run(adaptiveConfig(Seed, OSR), AC)).first;
  }
  return It->second;
}

namespace {

//===----------------------------------------------------------------------===//
// output-stability
//===----------------------------------------------------------------------===//

class OutputStabilityOracle : public Oracle {
public:
  const char *id() const override { return "output-stability"; }
  const char *describe() const override {
    return "optimized/unoptimized and profiling-on/off runs print the "
           "same values and allocate the same heap";
  }

  std::string check(const OracleInput &In) const override {
    ProgramRuns &Runs = In.Runs;
    // Profiling off, no compilation pipeline: the reference semantics.
    const RunResult &Base = Runs.baseline();
    if (Base.State != vm::RunState::Finished)
      return "baseline run did not finish: " + describeRun(Base);

    // Profiling on, every registered profiler (the registry is the
    // authority on what exists — a profiler added there is covered here
    // with no oracle change).
    for (const prof::ProfilerDescriptor &P :
         prof::ProfilerRegistry::instance().all()) {
      if (P.Kind == vm::ProfilerKind::None)
        continue; // that IS the baseline
      vm::VMConfig Config = plainConfig(In.Seed);
      P.Configure(Config.Profiler);
      Config.Profiler.CBS.Stride = 2;
      Config.Profiler.CBS.SamplesPerTick = 4;
      if (std::string D =
              compareRuns("profiling-off", Base, P.Name, Runs.run(Config));
          !D.empty())
        return D;
    }

    // Optimized (trivial inlining, the accuracy-experiment pipeline).
    vm::VMConfig Opt =
        exp::jitOnlyConfig(In.P, vm::Personality::JikesRVM, In.Seed);
    Opt.Profiler.Kind = vm::ProfilerKind::CBS;
    if (std::string D = compareRuns("unoptimized", Base, "trivially-optimized",
                                    Runs.run(Opt));
        !D.empty())
      return D;

    // Profile-directed inlining driven by the exhaustive profile.
    auto Plan = std::make_shared<opt::InlinePlan>(
        exp::newJikesOracle().plan(In.P, Runs.exhaustive().Profile));
    vm::VMConfig Pgo = plainConfig(In.Seed);
    Pgo.Profiler.Kind = vm::ProfilerKind::CBS;
    Pgo.CompileHook = opt::makeCompileHook(std::move(Plan));
    if (std::string D = compareRuns("unoptimized", Base, "profile-inlined",
                                    Runs.run(Pgo));
        !D.empty())
      return D;
    return "";
  }
};

//===----------------------------------------------------------------------===//
// cbs-subset
//===----------------------------------------------------------------------===//

class CbsSubsetOracle : public Oracle {
public:
  /// Overlap floor, applied only once the run has taken enough samples
  /// for the overlap statistic to be meaningful. Seed-stable: runs are
  /// deterministic, so a seed that clears the floor always will.
  static constexpr uint64_t MinSamplesForFloor = 50;
  static constexpr double OverlapFloorPct = 30.0;

  const char *id() const override { return "cbs-subset"; }
  const char *describe() const override {
    return "CBS-sampled DCG support is a subset of the exhaustive "
           "profile and overlaps it above the floor";
  }

  std::string check(const OracleInput &In) const override {
    ProgramRuns &Runs = In.Runs;
    const RunResult &Exhaustive = Runs.exhaustive();
    if (Exhaustive.Profile.totalWeight() != Exhaustive.Calls) {
      std::ostringstream OS;
      OS << "exhaustive profile weight " << Exhaustive.Profile.totalWeight()
         << " does not equal the " << Exhaustive.Calls << " executed calls";
      return OS.str();
    }

    vm::VMConfig Config = plainConfig(In.Seed);
    Config.Profiler.Kind = vm::ProfilerKind::CBS;
    Config.Profiler.CBS.Stride = 1;
    Config.Profiler.CBS.SamplesPerTick = 1000;
    // Short programs may take no samples; a tiny timer period opens
    // enough windows.
    Config.TimerPeriodCycles = 500;
    RunResult Sampled = Runs.run(Config);

    std::string Problem;
    Sampled.Profile.forEachEdge([&](prof::CallEdge E, uint64_t W) {
      if (Problem.empty() && Exhaustive.Profile.weight(E) == 0) {
        std::ostringstream OS;
        OS << "sampled edge (site " << E.Site << " -> method " << E.Callee
           << ", weight " << W << ") never executed";
        Problem = OS.str();
      }
    });
    if (!Problem.empty())
      return Problem;

    if (Sampled.Samples >= MinSamplesForFloor) {
      double Overlap = prof::overlap(Sampled.Profile, Exhaustive.Profile);
      if (Overlap < OverlapFloorPct) {
        std::ostringstream OS;
        OS << "overlap " << Overlap << "% below the " << OverlapFloorPct
           << "% floor after " << Sampled.Samples << " samples";
        return OS.str();
      }
    }
    return "";
  }
};

//===----------------------------------------------------------------------===//
// profile-roundtrip
//===----------------------------------------------------------------------===//

class ProfileRoundTripOracle : public Oracle {
public:
  const char *id() const override { return "profile-roundtrip"; }
  const char *describe() const override {
    return "serialize -> parse -> serialize of any sampled profile is "
           "byte-identical and validates against the program";
  }

  std::string check(const OracleInput &In) const override {
    ProgramRuns &Runs = In.Runs;
    // One exact and one sampled profiler, resolved through the
    // registry. The sampled run is the shared cbs(0); the exact one is
    // not exhaustive(), whose timer differs.
    vm::VMConfig Exact = exhaustiveConfig(In.Seed);
    Exact.Profiler.CBS.SamplesPerTick = 64;
    Exact.TimerPeriodCycles = 2'000;
    if (std::string D = roundTrip("exhaustive", Runs.run(Exact).Profile, In);
        !D.empty())
      return D;
    return roundTrip("cbs", Runs.cbs(0).Profile, In);
  }

private:
  static std::string roundTrip(const std::string &Name,
                               const prof::DCGSnapshot &Profile,
                               const OracleInput &In) {
    if (std::string Problem = prof::validateAgainst(Profile, In.P);
        !Problem.empty())
      return Name + " profile fails validation: " + Problem;

    std::string First = prof::ProfileCodec::encode(Profile);
    prof::ProfileCodec::Decoded Parsed = prof::ProfileCodec::decode(First);
    if (!Parsed.ok())
      return Name + " profile does not parse back: " + Parsed.Error;
    std::string Second = prof::ProfileCodec::encode(*Parsed.Graph);
    if (First != Second)
      return Name + " profile round-trip is not byte-identical (" +
             std::to_string(First.size()) + " vs " +
             std::to_string(Second.size()) + " bytes)";

    // The v2 (repository) envelope must round-trip metadata exactly.
    prof::ProfileMeta Meta;
    Meta.ProgramHash = 0x0123456789abcdefull ^ In.Seed;
    Meta.Personality = "jikes";
    Meta.Runs = 3;
    Meta.Cycles = 1'000'000 + In.Seed;
    std::string V2 = prof::ProfileCodec::encode(Profile, Meta);
    prof::ProfileCodec::Decoded P2 = prof::ProfileCodec::decode(V2);
    if (!P2.ok())
      return Name + " v2 profile does not parse back: " + P2.Error;
    if (P2.Version != prof::ProfileCodec::V2 ||
        P2.Meta.ProgramHash != Meta.ProgramHash ||
        P2.Meta.Personality != Meta.Personality ||
        P2.Meta.Runs != Meta.Runs || P2.Meta.Cycles != Meta.Cycles)
      return Name + " v2 metadata did not round-trip";
    if (prof::ProfileCodec::encode(*P2.Graph, P2.Meta) != V2)
      return Name + " v2 profile round-trip is not byte-identical";
    return "";
  }
};

//===----------------------------------------------------------------------===//
// shard-determinism (the id predates the one-thread profile repository and
// is kept: per-oracle fuzz timings are keyed by it)
//===----------------------------------------------------------------------===//

class JobDeterminismOracle : public Oracle {
public:
  const char *id() const override { return "shard-determinism"; }
  const char *describe() const override {
    return "profiles committed through ParallelRunner are bitwise equal "
           "at jobs 1/4";
  }

  std::string check(const OracleInput &In) const override {
    ProgramRuns &Runs = In.Runs;
    // A grid of runs through the parallel engine must commit
    // byte-identical results at any job count.
    constexpr size_t Grid = 3;
    auto Sweep = [](exp::ParallelRunner &Runner, auto Profile) {
      std::vector<std::string> Serialized(Grid);
      std::string Committed;
      Runner.run(
          Grid,
          [&](exp::ParallelRunner::TaskContext &Ctx) {
            Serialized[Ctx.Index] =
                prof::ProfileCodec::encode(Profile(Ctx.Index));
          },
          [&](exp::ParallelRunner::TaskContext &Ctx) {
            Committed += Serialized[Ctx.Index];
          });
      return Committed;
    };
    // The serial side reads the program's shared CBS runs on the
    // calling thread.
    exp::ParallelRunner SerialRunner({.Jobs = 1});
    std::string Serial =
        Sweep(SerialRunner, [&](size_t I) -> const prof::DCGSnapshot & {
          return Runs.cbs(static_cast<unsigned>(I)).Profile;
        });
    // The parallel side runs each configuration again on the workers of
    // this oracle's one runner. Campaign workers check programs
    // concurrently and a pool takes one submitter at a time, so they
    // take the runner in turns.
    std::string Parallel;
    {
      std::lock_guard<std::mutex> Lock(WorkersMutex);
      if (!Workers)
        Workers = std::make_unique<exp::ParallelRunner>(
            exp::ParallelConfig{.Jobs = 4});
      Parallel = Sweep(*Workers, [&](size_t I) {
        return Runs.run(cbsConfig(In.Seed + I)).Profile;
      });
    }
    if (Serial != Parallel)
      return "ParallelRunner jobs=1 and jobs=4 commit different profile "
             "bytes";
    return "";
  }

private:
  // Created at the first check, not in builtin(): a registry that is
  // built and never checked starts nothing.
  mutable std::mutex WorkersMutex;
  mutable std::unique_ptr<exp::ParallelRunner> Workers;
};

//===----------------------------------------------------------------------===//
// AOS stability: async-compile, deopt-storm, osr, warm-start
//===----------------------------------------------------------------------===//

/// One adaptive configuration an AosStabilityOracle checks.
struct AosRow {
  const char *Label;
  double LatencyScale;
  bool OSR = false;
  /// Forced invalidation storm: every version the AOS installs is
  /// invalidated at the very next taken yieldpoint, forever.
  bool Storm = false;
  /// Warm start from the profile of one cold run at the row's latency.
  bool Warm = false;
  /// Also run at compile-jobs 2 and require a byte-identical run.
  bool CheckJobs = false;
};

/// Profile-directed recompilation must be invisible to the program:
/// every row, run with the adaptive system attached, prints and
/// allocates exactly what the no-AOS baseline does. Rows with CheckJobs
/// must also be byte-identical at compile-jobs 0 and 2, down to the
/// sample count and the serialized profile: worker threads only
/// pre-compute pure compile results, and every install, invalidation,
/// OSR transfer and warm pre-enqueue happens on the VM thread in
/// virtual time.
class AosStabilityOracle : public Oracle {
public:
  AosStabilityOracle(const char *Id, const char *Describe,
                     std::vector<AosRow> Rows)
      : Id(Id), Describe(Describe), Rows(std::move(Rows)) {}

  const char *id() const override { return Id; }
  const char *describe() const override { return Describe; }

  std::string check(const OracleInput &In) const override {
    ProgramRuns &Runs = In.Runs;
    const RunResult &Base = Runs.baseline();
    // A baseline that traps or runs out of budget is output-stability's
    // finding, not an AOS divergence.
    if (Base.State != vm::RunState::Finished)
      return "";

    for (const AosRow &Row : Rows) {
      vm::VMConfig Config = adaptiveConfig(In.Seed, Row.OSR);
      aos::AOSConfig AC;
      AC.CompileLatencyScale = Row.LatencyScale;
      if (Row.Storm) {
        AC.Deopt.Enabled = true;
        AC.Deopt.ForceStormForTesting = true;
        // A low cap so the storm also exercises conservative pinning.
        AC.Deopt.MaxDeoptsPerMethod = 2;
      }
      if (Row.Warm) {
        // The cold run collects the profile a repository would persist.
        AC.WarmStart.Profile = std::make_shared<const prof::DCGSnapshot>(
            Runs.adaptive(Row.LatencyScale, Row.OSR).Profile);
      }

      // With neither storm nor warm start, the row's compile-jobs-0 run
      // is the shared adaptive run.
      AC.CompileJobs = 0;
      std::optional<RunResult> OwnJobs0;
      const RunResult &Jobs0 =
          Row.Storm || Row.Warm
              ? OwnJobs0.emplace(Runs.run(Config, AC))
              : Runs.adaptive(Row.LatencyScale, Row.OSR);
      if (std::string D = compareRuns("no-aos", Base, Row.Label, Jobs0);
          !D.empty())
        return D;
      if (!Row.CheckJobs)
        continue;

      AC.CompileJobs = 2;
      RunResult Jobs2 = Runs.run(Config, AC);
      std::string Label = Row.Label;
      if (std::string D = compareRuns(Label + " compile-jobs=0", Jobs0,
                                      Label + " compile-jobs=2", Jobs2);
          !D.empty())
        return D;
      if (Jobs0.Samples != Jobs2.Samples)
        return Label + " with compile-jobs=0 and compile-jobs=2 took "
                       "different sample counts";
      if (prof::ProfileCodec::encode(Jobs0.Profile) !=
          prof::ProfileCodec::encode(Jobs2.Profile))
        return Label + " with compile-jobs=0 and compile-jobs=2 profiles "
                       "serialize differently";
    }
    return "";
  }

private:
  const char *Id;
  const char *Describe;
  std::vector<AosRow> Rows;
};

//===----------------------------------------------------------------------===//
// The deliberately broken test oracle
//===----------------------------------------------------------------------===//

class BrokenOracleForTesting : public Oracle {
public:
  const char *id() const override { return "broken"; }
  const char *describe() const override {
    return "TEST ONLY: flags any program that prints (exercises the "
           "reducer and replay path)";
  }

  std::string check(const OracleInput &In) const override {
    const RunResult &R = In.Runs.baseline();
    if (!R.Output.empty())
      return "program printed " + std::to_string(R.Output.size()) +
             " values (the broken oracle rejects all output)";
    return "";
  }
};

} // namespace

OracleRegistry OracleRegistry::builtin() {
  OracleRegistry R;
  R.add(std::make_unique<OutputStabilityOracle>());
  R.add(std::make_unique<CbsSubsetOracle>());
  R.add(std::make_unique<ProfileRoundTripOracle>());
  R.add(std::make_unique<JobDeterminismOracle>());
  // Each table fixes its oracle's VM runs and their order (baseline,
  // then every row at compile-jobs 0, and 2 where checked): a new row
  // adds runs to every fuzzed program, except where it reads a shared
  // run (ProgramRuns) another oracle already made.
  R.add(std::make_unique<AosStabilityOracle>(
      "async-compile-stability",
      "the background compile pipeline preserves program "
      "semantics at any modelled latency and is byte-identical "
      "at any --compile-jobs count",
      std::vector<AosRow>{
          {.Label = "aos-latency-0", .LatencyScale = 0},
          {.Label = "aos-latency-8", .LatencyScale = 8},
          {.Label = "aos-latency-1", .LatencyScale = 1, .CheckJobs = true}}));
  R.add(std::make_unique<AosStabilityOracle>(
      "deopt-storm-stability",
      "a forced invalidation storm (every AOS install deoptimized "
      "at every taken yieldpoint) leaves output and heap "
      "byte-identical to the no-AOS baseline at any "
      "--compile-jobs",
      std::vector<AosRow>{{.Label = "deopt-storm",
                           .LatencyScale = 1,
                           .Storm = true,
                           .CheckJobs = true}}));
  R.add(std::make_unique<AosStabilityOracle>(
      "osr-stability",
      "on-stack replacement (promotion and deopt-exit transfers at "
      "loop-header yieldpoints) preserves output and heap and is "
      "byte-identical at any --compile-jobs",
      std::vector<AosRow>{
          {.Label = "osr-latency-0", .LatencyScale = 0, .OSR = true},
          {.Label = "osr-latency-8", .LatencyScale = 8, .OSR = true},
          {.Label = "osr-latency-1",
           .LatencyScale = 1,
           .OSR = true,
           .CheckJobs = true},
          {.Label = "osr-deopt-storm",
           .LatencyScale = 1,
           .OSR = true,
           .Storm = true,
           .CheckJobs = true}}));
  R.add(std::make_unique<AosStabilityOracle>(
      "warm-start-stability",
      "warm-starting the AOS from a prior run's profile preserves "
      "output and heap and is byte-identical at any "
      "--compile-jobs",
      std::vector<AosRow>{{.Label = "warm-start",
                           .LatencyScale = 1,
                           .Warm = true,
                           .CheckJobs = true}}));
  return R;
}

void fuzz::addBrokenOracleForTesting(OracleRegistry &R) {
  R.add(std::make_unique<BrokenOracleForTesting>());
}
