//===- experiments/RunDriver.cpp - cbsvm's run wiring ---------------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//

#include "experiments/RunDriver.h"

#include "experiments/Experiments.h"

#include <cstdio>

namespace cbs::exp {

wl::InputSize parseSizeOption(support::ArgParser &Args) {
  std::string S = Args.option("--size", "small");
  if (S == "small")
    return wl::InputSize::Small;
  if (S == "large")
    return wl::InputSize::Large;
  if (S == "steady")
    return wl::InputSize::Steady;
  Args.fail("unknown size '" + S + "'");
}

RunSetup parseRunSetup(support::ArgParser &Args) {
  RunSetup S;
  S.Name = Args.positional("workload name");
  // "phased" is the two-phase convergence-study program — deliberately
  // not part of the Table 1 suite, but the natural input for the
  // quality monitor, so the driver accepts it everywhere a workload
  // name is expected.
  const wl::WorkloadInfo *W = wl::findWorkload(S.Name);
  if (!W && S.Name != "phased")
    Args.fail("unknown workload '" + S.Name + "' (try 'cbsvm list')");

  S.Size = parseSizeOption(Args);
  // The shared options, pulled in this order: the VM's (--personality,
  // --seed, --profiler and its knobs, --osr), the AOS's (--aos,
  // --compile-jobs, --compile-latency-scale, --deopt-threshold,
  // --max-deopts), then the profile repository (--profile-repo). Each
  // is declared here once for every subcommand.
  S.Config = vm::VMConfig::fromArgs(Args);
  aos::AOSOptionGroup AOSOpts;
  AOSOpts.parse(Args, S.Config);
  S.RepoDir = Args.option("--profile-repo", "");

  S.P = W ? W->Build(S.Size, S.Config.Seed)
          : wl::buildPhased(S.Size, S.Config.Seed);
  applyJitOnly(S.P, S.Config);

  // Warm start is an AOS feature, so the repository implies --aos.
  if (AOSOpts.UseAOS || !S.RepoDir.empty())
    S.AOS = AOSOpts.Config;
  return S;
}

tel::FlightRecorderConfig parseReportOptions(support::ArgParser &Args,
                                             RunSetup &S) {
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
  return RC;
}

DriverRun::DriverRun(RunSetup &S) : S(S) {
  if (!S.RepoDir.empty()) {
    Repo = std::make_unique<prof::ProfileRepository>(S.RepoDir);
    Key.Workload = S.Name;
    Key.ProgramHash = S.P.contentHash();
    Key.Personality =
        S.Config.Pers == vm::Personality::JikesRVM ? "jikes" : "j9";
    Load = Repo->load(Key);
    if (Load.ok())
      S.AOS->WarmStart.Profile =
          std::make_shared<const prof::DCGSnapshot>(Load.Entry->Graph);
    else if (Load.Rejected)
      std::fprintf(stderr, "cbsvm: profile-repo: %s\n",
                   Load.Diagnostic.c_str());
  }
  R.emplace(RunSpec{.P = &S.P, .Config = S.Config, .AOS = S.AOS});
}

aos::RepoReport DriverRun::repoReport() const {
  aos::RepoReport R;
  R.Present = Repo != nullptr;
  R.Dir = S.RepoDir;
  R.Loaded = Load.ok() ? 1 : 0;
  R.Rejected = Load.Rejected ? 1 : 0;
  R.Runs = Load.ok() ? Load.Entry->Meta.Runs : 0;
  R.Committed = Commit.Committed ? 1 : 0;
  R.Diagnostic = Load.Rejected ? Load.Diagnostic : Commit.Error;
  return R;
}

vm::RunState DriverRun::run() {
  // Unbounded, so the run has ended: the VM and its profile are still
  // fully alive for the repository commit.
  State = R->run();
  if (Repo) {
    vm::VirtualMachine &VM = R->vm();
    // Commit only a cleanly finished run: a trapped/halted/limited
    // run's profile is partial evidence of a program that didn't
    // complete, and persisting it would poison later warm starts.
    if (State == vm::RunState::Finished) {
      Commit = Repo->commit(Key, VM.profile(), VM.cycles());
      if (!Commit.Error.empty())
        std::fprintf(stderr, "cbsvm: profile-repo: %s\n",
                     Commit.Error.c_str());
    }
    // Registered before the recorder's dump so every metrics surface
    // (--metrics-json, stats --json) reports the repository
    // interaction.
    aos::RepoReport Report = repoReport();
    tel::MetricRegistry &Metrics = VM.metricsRegistry();
    Metrics.gauge("repo.loaded") = Report.Loaded;
    Metrics.gauge("repo.rejected") = Report.Rejected;
    Metrics.gauge("repo.runs") = Report.Runs;
    Metrics.gauge("repo.committed") = Report.Committed;
  }
  if (S.Config.Recorder)
    S.Config.Recorder->requestDump("end_of_run", R->vm().cycles());
  return State;
}

aos::ReportInputs DriverRun::reportInputs() {
  aos::ReportInputs In;
  In.Workload = S.Name;
  In.Size = wl::inputSizeName(S.Size);
  In.Seed = S.Config.Seed;
  In.State = vm::runStateName(State);
  In.VM = &R->vm();
  In.AOS = R->adaptive();
  In.Recorder = S.Config.Recorder;
  In.Repo = repoReport();
  return In;
}

} // namespace cbs::exp
