//===- bench/ledger/Workloads.cpp - The ledger's four workloads ------------===//
//
// Part of the CBSVM project.
//
// Each workload does fixed work for a given (seed, scale) and stresses a
// different set of layers, so a change to one layer shows on the
// workload that exercises it and leaves the others flat:
//
//  - interp-steady: four steady programs, no profiler, no AOS — the
//    interpreter does all the work.
//  - accuracy-sweep: the 13-program Table 2 slice — many short runs,
//    VM set-up, lazy JIT, sampling stack walks and DCG writes.
//  - adaptive-steady: cold and warm-started adaptive runs — opt, AOS,
//    deopt/OSR, the profile repository and the report, with the DCG
//    mostly read.
//  - fuzz-campaign: thousands of tiny programs through every builtin
//    oracle — per-run fixed costs.
//
// Layers are timed from outside: spans around public calls, and
// forwarding wrappers at the extension points (the JIT compile hook,
// the inline oracle, the VM client and each fuzz oracle).
//
//===----------------------------------------------------------------------===//

#include "Ledger.h"

#include "aos/AdaptiveSystem.h"
#include "aos/ReportJson.h"
#include "bytecode/Verifier.h"
#include "experiments/Experiments.h"
#include "fuzz/Fuzzer.h"
#include "opt/InlineOracle.h"
#include "profiling/OverlapMetric.h"
#include "profiling/ProfileCodec.h"
#include "profiling/ProfileRepository.h"
#include "profiling/ProfilerRegistry.h"
#include "support/Json.h"
#include "vm/VirtualMachine.h"
#include "workloads/Workloads.h"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <unistd.h>

using namespace cbs;
using namespace ledger;

std::string ledger::hex64(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof Buf, "%016" PRIx64, V);
  return Buf;
}

namespace {

//===----------------------------------------------------------------------===//
// Wrappers at the extension points
//===----------------------------------------------------------------------===//

void wrapCompileHook(Run &R, vm::VMConfig &Config) {
  Config.CompileHook = [&R, Inner = std::move(Config.CompileHook)](
                           const bc::Program &P, bc::MethodId Id, int Level) {
    Scope S(R.T, OptJitCompile);
    R.Counts["opt.jit_compiles"] += 1;
    return Inner(P, Id, Level);
  };
}

class TimedInlineOracle : public opt::InlineOracle {
public:
  TimedInlineOracle(Run &R, const opt::InlineOracle &Inner)
      : R(R), Inner(Inner) {}

  opt::InlinePlan plan(const bc::Program &P,
                       const prof::DCGSnapshot &DCG) const override {
    Scope S(R.T, OptPlan);
    R.Counts["opt.plans"] += 1;
    return Inner.plan(P, DCG);
  }
  const char *name() const override { return Inner.name(); }

private:
  Run &R;
  const opt::InlineOracle &Inner;
};

class TimedClient : public vm::VMClient {
public:
  TimedClient(Tracer &T, vm::VMClient &Inner) : T(T), Inner(Inner) {}

  void onStartup(vm::VirtualMachine &VM) override {
    Scope S(T, AosStartup);
    Inner.onStartup(VM);
  }
  void onTimerTick(vm::VirtualMachine &VM, bc::MethodId Top) override {
    Scope S(T, AosTick);
    Inner.onTimerTick(VM, Top);
  }
  void onYieldpoint(vm::VirtualMachine &VM) override {
    Scope S(T, AosYieldpoint);
    Inner.onYieldpoint(VM);
  }

private:
  Tracer &T;
  vm::VMClient &Inner;
};

//===----------------------------------------------------------------------===//
// Shared VM plumbing
//===----------------------------------------------------------------------===//

/// A built program. Heap-allocated because a VirtualMachine keeps a
/// reference to its program.
struct LoadedProgram {
  std::string Name;
  std::unique_ptr<bc::Program> P;
  /// Verifier diagnostic; empty when the program verified.
  std::string Rejection;
};

LoadedProgram loadProgram(Run &R, const std::string &Name, wl::InputSize Size,
                          uint64_t Seed) {
  LoadedProgram L;
  L.Name = Name;
  {
    Scope S(R.T, WorkloadsBuild);
    const wl::WorkloadInfo *W = wl::findWorkload(Name);
    L.P = std::make_unique<bc::Program>(W ? W->Build(Size, Seed)
                                          : wl::buildPhased(Size, Seed));
  }
  Scope S(R.T, BytecodeVerify);
  if (bc::VerifyResult VR = bc::verifyProgram(*L.P); !VR.ok())
    L.Rejection = "verifier: " + VR.str();
  return L;
}

std::unique_ptr<vm::VirtualMachine>
constructVM(Run &R, const bc::Program &P, vm::VMConfig Config) {
  wrapCompileHook(R, Config);
  Scope S(R.T, VmConstruct);
  return std::make_unique<vm::VirtualMachine>(P, std::move(Config));
}

uint64_t hashOutput(const std::vector<int64_t> &Output) {
  uint64_t H = FnvOffset;
  for (int64_t V : Output)
    for (int Byte = 0; Byte != 8; ++Byte) {
      H ^= (static_cast<uint64_t>(V) >> (8 * Byte)) & 0xff;
      H *= FnvPrime;
    }
  return H;
}

/// Runs \p Budget more cycles as (part of) unit \p U: records the
/// cycle count and output hash, and fails the unit on a trap.
vm::RunState runSlice(Run &R, vm::VirtualMachine &VM, uint64_t Budget,
                      UnitResult &U) {
  vm::RunState State;
  {
    Scope S(R.T, VmRun);
    State = VM.run(Budget);
  }
  if (State == vm::RunState::Trapped)
    U.Failure = "trap: " + VM.trapMessage();
  U.Digest = "c=" + std::to_string(VM.cycles()) +
             " o=" + hex64(hashOutput(VM.output()));
  return State;
}

struct EncodedProfile {
  prof::DCGSnapshot Graph;
  std::string Text;
};

EncodedProfile encodeProfile(Run &R, vm::VirtualMachine &VM) {
  EncodedProfile E;
  {
    Scope S(R.T, ProfilingSnapshot);
    E.Graph = VM.profile();
  }
  Scope S(R.T, CodecEncode);
  E.Text = prof::ProfileCodec::encode(E.Graph);
  return E;
}

/// The VM counters reported as per-layer counts.
constexpr const char *VmCounterNames[] = {
    "vm.cycles",         "vm.instructions",    "vm.calls_executed",
    "vm.timer_ticks",    "vm.yieldpoints_taken", "vm.thread_switches",
    "vm.gc_count",       "vm.samples_taken",   "dcg.flushes",
    "dcg.dropped_samples", "vm.deopts",        "vm.osr_entries"};

void addVmCounts(Run &R, vm::VirtualMachine &VM) {
  Scope S(R.T, VmMetrics);
  const tel::MetricRegistry &M = VM.metrics();
  for (const char *Name : VmCounterNames)
    if (const tel::Counter *C = M.findCounter(Name))
      R.Counts[Name] += static_cast<double>(C->Value);
}

/// End of a sliced run, outside any unit: pins the final profile on
/// the run's last unit and collects the VM counters.
EncodedProfile finishRun(Run &R, vm::VirtualMachine &VM) {
  EncodedProfile E = encodeProfile(R, VM);
  R.Units.back().Digest += " p=" + hex64(fnv1a(E.Text));
  addVmCounts(R, VM);
  return E;
}

//===----------------------------------------------------------------------===//
// interp-steady
//===----------------------------------------------------------------------===//

class InterpSteadyWorkload : public Workload {
  static constexpr const char *Programs[] = {"jess", "javac", "db", "mtrt"};
  // 250M cycles per program and round; 400 units.
  static constexpr uint64_t SliceCycles = 2'500'000;
  static constexpr unsigned SlicesPerProgram = 100;

  struct Entry {
    LoadedProgram L;
    std::unique_ptr<vm::VirtualMachine> VM;
  };
  std::vector<Entry> Entries;

public:
  void setup(Run &R) override {
    Entries.clear();
    for (const char *Name : Programs) {
      Entry E{loadProgram(R, Name, wl::InputSize::Steady, R.Opt.Seed), {}};
      if (E.L.Rejection.empty())
        E.VM = constructVM(R, *E.L.P,
                           exp::jitOnlyConfig(*E.L.P, vm::Personality::JikesRVM,
                                              R.Opt.Seed));
      Entries.push_back(std::move(E));
    }
  }

  void run(Run &R) override {
    unsigned Slices = R.scaled(SlicesPerProgram);
    for (Entry &E : Entries) {
      for (unsigned K = 0; K != Slices; ++K)
        R.unit(E.L.Name + "/slice-" + std::to_string(K), [&](UnitResult &U) {
          if (E.VM)
            runSlice(R, *E.VM, SliceCycles, U);
          else
            U.Failure = E.L.Rejection;
        });
      if (E.VM)
        finishRun(R, *E.VM);
      E.VM.reset();
    }
  }
};

//===----------------------------------------------------------------------===//
// accuracy-sweep
//===----------------------------------------------------------------------===//

class AccuracySweepWorkload : public Workload {
  /// (Stride, SamplesPerTick) cells from Table 2's corners and diagonal.
  struct Cell {
    uint32_t Stride;
    uint32_t Samples;
  };
  static constexpr Cell Cells[] = {{1, 8192}, {1, 256}, {3, 16}, {7, 8},
                                   {15, 4},   {31, 2},  {63, 1}};
  static constexpr size_t HeaviestCell = 0, LightestCell = 6;
  static constexpr unsigned SeedsPerProgram = 2;

  struct Pair {
    LoadedProgram L;
    uint64_t Seed;
    vm::Personality Pers;
  };
  std::vector<Pair> Pairs;

  /// Per unit: 0 for the perfect run, 1 + cell index for a CBS run.
  std::vector<size_t> UnitKind;

  /// Runs one complete VM run as unit \p Id; returns its profile.
  /// \p Perfect is null for the perfect run itself.
  prof::DCGSnapshot measuredRun(Run &R, const Pair &Pr, const std::string &Id,
                                size_t Kind, const vm::ProfilerOptions &Prof,
                                const prof::DCGSnapshot *Perfect) {
    EncodedProfile E;
    UnitKind.push_back(Kind);
    R.unit(Id, [&](UnitResult &U) {
      if (!Pr.L.Rejection.empty()) {
        U.Failure = Pr.L.Rejection;
        return;
      }
      vm::VMConfig Config = exp::jitOnlyConfig(*Pr.L.P, Pr.Pers, Pr.Seed);
      Config.Profiler = Prof;
      std::unique_ptr<vm::VirtualMachine> VM =
          constructVM(R, *Pr.L.P, std::move(Config));
      vm::RunState State = runSlice(R, *VM, UINT64_MAX, U);
      if (U.Failure.empty() && State != vm::RunState::Finished)
        U.Failure = std::string("run ended ") + vm::runStateName(State);
      E = encodeProfile(R, *VM);
      U.Digest += " p=" + hex64(fnv1a(E.Text));
      if (Perfect) {
        double Accuracy;
        {
          Scope S(R.T, ProfilingOverlap);
          Accuracy = prof::accuracy(E.Graph, *Perfect);
        }
        char Buf[32];
        std::snprintf(Buf, sizeof Buf, " a=%.6f", Accuracy);
        U.Digest += Buf;
      }
      addVmCounts(R, *VM);
    });
    return E.Graph;
  }

  /// Host cost of the heaviest sampling cell and of the perfect run
  /// relative to the lightest cell, from their units' vm.run self time.
  /// Every kind runs the same programs to completion, so the self times
  /// compare like for like; per virtual cycle they would not, because
  /// heavier profiling also adds modelled cycles.
  void deriveHostCosts(Run &R) {
    std::vector<double> Ns(1 + std::size(Cells));
    std::vector<uint64_t> Self = R.T.selfNs();
    const std::vector<Tracer::Span> &Spans = R.T.spans();
    for (size_t I = 0; I != Spans.size(); ++I)
      if (Spans[I].Name == VmRun)
        Ns[UnitKind[Spans[I].Unit]] += static_cast<double>(Self[I]);
    double Base = Ns[1 + LightestCell];
    if (Base == 0)
      return;
    R.Counts["profiling.sampling_host_cost_pct"] =
        100.0 * (Ns[1 + HeaviestCell] / Base - 1.0);
    R.Counts["profiling.exhaustive_host_cost_pct"] =
        100.0 * (Ns[0] / Base - 1.0);
  }

public:
  void setup(Run &R) override {
    Pairs.clear();
    UnitKind.clear();
    const std::vector<wl::WorkloadInfo> &Suite = wl::suite();
    unsigned N = R.scaled(static_cast<unsigned>(Suite.size()) * SeedsPerProgram);
    for (unsigned I = 0; I != N; ++I) {
      const wl::WorkloadInfo &W = Suite[I % Suite.size()];
      unsigned Offset = I / static_cast<unsigned>(Suite.size());
      uint64_t Seed = R.Opt.Seed + Offset;
      // Seed S models Jikes RVM, seed S+1 models J9.
      vm::Personality Pers = Offset % 2 == 0 ? vm::Personality::JikesRVM
                                             : vm::Personality::J9;
      Pairs.push_back(
          {loadProgram(R, W.Name, wl::InputSize::Small, Seed), Seed, Pers});
    }
  }

  void run(Run &R) override {
    const prof::ProfilerRegistry &Registry = prof::ProfilerRegistry::instance();
    vm::ProfilerOptions Exhaustive;
    Registry.configure("exhaustive", Exhaustive);
    for (const Pair &Pr : Pairs) {
      std::string Stem = Pr.L.Name + "/s" + std::to_string(Pr.Seed) + "/";
      prof::DCGSnapshot Perfect =
          measuredRun(R, Pr, Stem + "perfect", 0, Exhaustive, nullptr);
      for (size_t C = 0; C != std::size(Cells); ++C) {
        vm::ProfilerOptions Prof;
        Registry.configure("cbs", Prof);
        Prof.CBS.Stride = Cells[C].Stride;
        Prof.CBS.SamplesPerTick = Cells[C].Samples;
        measuredRun(R, Pr,
                    Stem + "cbs-" + std::to_string(Cells[C].Stride) + "x" +
                        std::to_string(Cells[C].Samples),
                    1 + C, Prof, &Perfect);
      }
    }
    if (R.T.on())
      deriveHostCosts(R);
  }
};

//===----------------------------------------------------------------------===//
// adaptive-steady
//===----------------------------------------------------------------------===//

class AdaptiveSteadyWorkload : public Workload {
  static constexpr const char *Programs[] = {"phased", "jess", "javac", "jbb"};
  // 50M cycles cold and 50M warm per program and round; 400 units.
  static constexpr uint64_t SliceCycles = 1'000'000;
  static constexpr unsigned SlicesPerPhase = 50;

  /// One adaptive VM: the AOS must outlive the VM that calls it.
  struct Session {
    std::unique_ptr<aos::AdaptiveSystem> AOS;
    std::unique_ptr<TimedClient> Client;
    std::unique_ptr<vm::VirtualMachine> VM;
  };

  struct Entry {
    LoadedProgram L;
    std::unique_ptr<prof::ProfileRepository> Repo;
    prof::RepoKey Key;
    Session Cold;
  };

  opt::NewJikesOracle NewJikes;
  std::unique_ptr<TimedInlineOracle> Oracle;
  std::string RepoRoot;
  std::vector<Entry> Entries;

  Session startSession(Run &R, const bc::Program &P,
                       std::shared_ptr<const prof::DCGSnapshot> Warm) {
    aos::AOSConfig AC;
    AC.CompileJobs = 0;
    AC.Deopt.Enabled = true;
    AC.Deopt.DominanceThresholdPct = 60.0;
    AC.WarmStart.Profile = std::move(Warm);

    vm::VMConfig Config =
        exp::jitOnlyConfig(P, vm::Personality::JikesRVM, R.Opt.Seed);
    Config.Profiler = exp::chosenCBS(vm::Personality::JikesRVM);
    Config.Profiler.Quality.EveryTicks = 8;
    Config.Profiler.DecayEveryTicks = 4;
    Config.EnableOSR = true;

    Session S;
    S.AOS = std::make_unique<aos::AdaptiveSystem>(Oracle.get(), AC);
    S.Client = std::make_unique<TimedClient>(R.T, *S.AOS);
    S.VM = constructVM(R, P, std::move(Config));
    S.VM->setClient(S.Client.get());
    return S;
  }

  /// Runs \p S for one phase of slices as units "<name>/<phase>/slice-k".
  void runPhase(Run &R, const Entry &E, Session &S, const char *Phase) {
    unsigned Slices = R.scaled(SlicesPerPhase);
    for (unsigned K = 0; K != Slices; ++K)
      R.unit(E.L.Name + "/" + Phase + "/slice-" + std::to_string(K),
             [&](UnitResult &U) {
               runSlice(R, *S.VM, SliceCycles, U);
               U.Digest +=
                   " i=" + std::to_string(S.AOS->stats().QueueInstalls);
             });
  }

  /// After a phase: pins the profile, checks it survives a codec round
  /// trip, optionally commits it, and builds and re-parses the report.
  void finishPhase(Run &R, Entry &E, Session &S, aos::RepoReport Repo,
                   bool CommitProfile) {
    EncodedProfile Profile = finishRun(R, *S.VM);
    std::string &Failure = R.Units.back().Failure;
    prof::ProfileCodec::Decoded Back;
    {
      Scope Sp(R.T, CodecDecode);
      Back = prof::ProfileCodec::decode(Profile.Text);
    }
    bool RoundTrips = false;
    if (Back.ok()) {
      Scope Sp(R.T, CodecEncode);
      RoundTrips = prof::ProfileCodec::encode(*Back.Graph) == Profile.Text;
    }
    if (!RoundTrips && Failure.empty())
      Failure = "profile codec round trip differs: " + Back.Error;

    if (CommitProfile) {
      prof::RepoCommitResult Commit;
      {
        Scope Sp(R.T, RepoCommit);
        Commit = E.Repo->commit(E.Key, Profile.Graph, S.VM->cycles());
      }
      Repo.Committed = Commit.Committed ? 1 : 0;
      if (!Commit.Committed && Failure.empty())
        Failure = "repository commit failed: " + Commit.Error;
    }

    aos::ReportInputs In;
    In.Workload = E.L.Name;
    In.Size = wl::inputSizeName(wl::InputSize::Steady);
    In.Seed = R.Opt.Seed;
    In.State = vm::runStateName(S.VM->state());
    In.VM = S.VM.get();
    In.AOS = S.AOS.get();
    In.Repo = std::move(Repo);
    std::string Report;
    {
      Scope Sp(R.T, ReportBuild);
      Report = aos::buildReportJson(In);
    }
    json::JsonParseResult Parsed;
    {
      Scope Sp(R.T, JsonParse);
      Parsed = json::parseJson(Report);
    }
    if (!Parsed.ok() && Failure.empty())
      Failure = "report JSON does not parse: " + Parsed.Error;

    const aos::AOSStats &A = S.AOS->stats();
    R.Counts["aos.enqueued"] += static_cast<double>(A.QueueEnqueued);
    R.Counts["aos.installs"] += static_cast<double>(A.QueueInstalls);
    R.Counts["aos.stale_drops"] += static_cast<double>(A.QueueStaleDrops);
  }

public:
  void setup(Run &R) override {
    Entries.clear();
    Oracle = std::make_unique<TimedInlineOracle>(R, NewJikes);
    RepoRoot = std::string(LEDGER_SCRATCH_DIR) + "/adaptive-repo-" +
               std::to_string(getpid());
    std::filesystem::remove_all(RepoRoot);
    for (const char *Name : Programs) {
      Entry E{loadProgram(R, Name, wl::InputSize::Steady, R.Opt.Seed), {}, {},
              {}};
      E.Repo =
          std::make_unique<prof::ProfileRepository>(RepoRoot + "/" + Name);
      if (E.L.Rejection.empty()) {
        E.Key = {Name, E.L.P->contentHash(), "jikes"};
        E.Cold = startSession(R, *E.L.P, nullptr);
      }
      Entries.push_back(std::move(E));
    }
  }

  void run(Run &R) override {
    for (Entry &E : Entries) {
      if (!E.L.Rejection.empty()) {
        for (unsigned K = 0, N = 2 * R.scaled(SlicesPerPhase); K != N; ++K)
          R.unit(E.L.Name + "/slice-" + std::to_string(K),
                 [&](UnitResult &U) { U.Failure = E.L.Rejection; });
        continue;
      }
      runPhase(R, E, E.Cold, "cold");
      aos::RepoReport ColdRepo;
      ColdRepo.Present = true;
      ColdRepo.Dir = E.Repo->dir();
      finishPhase(R, E, E.Cold, ColdRepo, /*CommitProfile=*/true);
      E.Cold.VM.reset();

      prof::RepoLoadResult Load;
      {
        Scope S(R.T, RepoLoad);
        Load = E.Repo->load(E.Key);
      }
      // A failed load still runs the warm phase (cold-started), but the
      // phase's first unit carries the failure.
      Session Warm = startSession(
          R, *E.L.P,
          Load.ok() ? std::make_shared<const prof::DCGSnapshot>(
                          Load.Entry->Graph)
                    : nullptr);
      size_t FirstWarm = R.Units.size();
      runPhase(R, E, Warm, "warm");
      if (!Load.ok())
        R.Units[FirstWarm].Failure =
            "repository load failed: " + Load.Diagnostic;
      aos::RepoReport WarmRepo = ColdRepo;
      WarmRepo.Loaded = Load.ok() ? 1 : 0;
      WarmRepo.Rejected = Load.Rejected ? 1 : 0;
      WarmRepo.Runs = Load.ok() ? Load.Entry->Meta.Runs : 0;
      WarmRepo.Diagnostic = Load.Diagnostic;
      finishPhase(R, E, Warm, WarmRepo, /*CommitProfile=*/false);
    }
    std::filesystem::remove_all(RepoRoot);
  }
};

//===----------------------------------------------------------------------===//
// fuzz-campaign
//===----------------------------------------------------------------------===//

/// Groups the oracle checks runFuzz makes into units, one per program.
/// At Jobs 1 a program's checks arrive back to back, so a unit spans
/// from its first check's start to its last check's end.
class FuzzUnits {
public:
  explicit FuzzUnits(Run &R) : R(R) {}

  void beginBatch(std::string Name) { Batch = std::move(Name); }

  void enter(const fuzz::OracleInput &In) {
    if (Open && Seed == In.Seed)
      return;
    close();
    Open = true;
    Seed = In.Seed;
    ProgramHash = In.P.contentHash();
    Checks = Violations = 0;
    FirstViolation.clear();
    R.T.setUnit(R.Units.size());
    StartNs = nowNs();
  }

  void leave(const std::string &Message) {
    EndNs = nowNs();
    ++Checks;
    if (!Message.empty() && Violations++ == 0)
      FirstViolation = Message;
  }

  /// Records the open unit, if any.
  void close() {
    if (!Open)
      return;
    Open = false;
    R.T.setUnit(Tracer::NoUnit);
    UnitResult U;
    U.Id = Batch + "/seed-" + std::to_string(Seed);
    U.Ns = EndNs - StartNs;
    U.Digest = "h=" + hex64(ProgramHash) + " k=" + std::to_string(Checks) +
               " v=" + std::to_string(Violations);
    if (Violations)
      U.Failure = "oracle violation: " + FirstViolation;
    R.Units.push_back(std::move(U));
  }

private:
  Run &R;
  std::string Batch;
  bool Open = false;
  uint64_t Seed = 0, ProgramHash = 0, StartNs = 0, EndNs = 0;
  unsigned Checks = 0, Violations = 0;
  std::string FirstViolation;
};

class TimedFuzzOracle : public fuzz::Oracle {
public:
  TimedFuzzOracle(Tracer &T, const fuzz::Oracle &Inner, FuzzUnits &Units)
      : T(T), Inner(Inner), Units(Units),
        Span(T.intern(std::string("fuzz.oracle.") + Inner.id())) {}

  const char *id() const override { return Inner.id(); }
  const char *describe() const override { return Inner.describe(); }
  std::string check(const fuzz::OracleInput &In) const override {
    Units.enter(In);
    std::string Message;
    {
      Scope S(T, Span);
      Message = Inner.check(In);
    }
    Units.leave(Message);
    return Message;
  }

private:
  Tracer &T;
  const fuzz::Oracle &Inner;
  FuzzUnits &Units;
  uint32_t Span;
};

class FuzzCampaignWorkload : public Workload {
  struct Batch {
    const char *Name;
    fuzz::ShapeConfig Shape;
    unsigned Runs;
  };

  fuzz::OracleRegistry Builtin;
  std::unique_ptr<FuzzUnits> Units;
  fuzz::OracleRegistry Timed;

public:
  void setup(Run &R) override {
    Timed = fuzz::OracleRegistry();
    Builtin = fuzz::OracleRegistry::builtin();
    Units = std::make_unique<FuzzUnits>(R);
    for (const std::unique_ptr<fuzz::Oracle> &O : Builtin.all())
      Timed.add(std::make_unique<TimedFuzzOracle>(R.T, *O, *Units));
  }

  void run(Run &R) override {
    const Batch Batches[] = {{"default", fuzz::ShapeConfig(), 2000},
                             {"long-loops", fuzz::ShapeConfig::longLoops(), 300},
                             {"threaded", fuzz::ShapeConfig::threaded(), 300}};
    for (const Batch &B : Batches) {
      fuzz::FuzzOptions FO;
      FO.SeedBase = R.Opt.Seed * 100'000;
      FO.Runs = R.scaled(B.Runs);
      FO.Jobs = 1;
      FO.Shape = B.Shape;
      Units->beginBatch(B.Name);
      fuzz::FuzzReport Report;
      {
        Scope S(R.T, FuzzCampaign);
        Report = fuzz::runFuzz(FO, Timed);
      }
      Units->close();
      // Programs the verifier rejected never reach an oracle.
      for (const fuzz::Violation &V : Report.Violations)
        if (V.OracleId == "verifier")
          R.Units.push_back({std::string(B.Name) + "/seed-" +
                                 std::to_string(V.Seed),
                             0, "rejected", "verifier: " + V.Message});
      R.Counts["fuzz.programs"] += Report.Runs;
      R.Counts["fuzz.oracle_checks"] += Report.OracleChecks;
      R.Counts["fuzz.violations"] +=
          static_cast<double>(Report.Violations.size());
      UnitResult &Last = R.Units.back();
      Last.Digest += " r=" + std::to_string(Report.Runs) +
                     " k=" + std::to_string(Report.OracleChecks) +
                     " v=" + std::to_string(Report.Violations.size());
      if (Report.Runs != FO.Runs && Last.Failure.empty())
        Last.Failure = "campaign ran " + std::to_string(Report.Runs) + " of " +
                       std::to_string(FO.Runs) + " programs";
    }
  }
};

} // namespace

const std::vector<std::string> &ledger::workloadNames() {
  static const std::vector<std::string> Names = {
      "interp-steady", "accuracy-sweep", "adaptive-steady", "fuzz-campaign"};
  return Names;
}

std::unique_ptr<Workload> ledger::makeWorkload(const std::string &Name) {
  if (Name == "interp-steady")
    return std::make_unique<InterpSteadyWorkload>();
  if (Name == "accuracy-sweep")
    return std::make_unique<AccuracySweepWorkload>();
  if (Name == "adaptive-steady")
    return std::make_unique<AdaptiveSteadyWorkload>();
  if (Name == "fuzz-campaign")
    return std::make_unique<FuzzCampaignWorkload>();
  return nullptr;
}
