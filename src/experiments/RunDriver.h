//===- experiments/RunDriver.h - cbsvm's run wiring -------------*- C++ -*-===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// How `cbsvm run`, `stats` and `report` turn their arguments into one
/// exp::Run (Run.h): the workload and VM configuration, the profile
/// repository's warm start and shutdown commit, the adaptive system,
/// and the report document's inputs. The determinism matrix
/// (tests/DeterminismMatrixTest.cpp) runs through this same unit, so it
/// compares exactly the bytes the CLI writes.
///
//===----------------------------------------------------------------------===//

#ifndef CBSVM_EXPERIMENTS_RUNDRIVER_H
#define CBSVM_EXPERIMENTS_RUNDRIVER_H

#include "aos/ReportJson.h"
#include "experiments/Run.h"
#include "profiling/ProfileRepository.h"
#include "support/ArgParser.h"
#include "telemetry/FlightRecorder.h"
#include "workloads/Workloads.h"

#include <memory>
#include <optional>
#include <string>

namespace cbs::exp {

/// Pulls --size small|large|steady (default small).
wl::InputSize parseSizeOption(support::ArgParser &Args);

/// Workload + VM configuration shared by `run`, `stats`, and `report`.
struct RunSetup {
  std::string Name;
  wl::InputSize Size = wl::InputSize::Small;
  bc::Program P;
  vm::VMConfig Config;
  /// Set by --aos (or an option implying it): attach the adaptive
  /// system so hot methods recompile through the background compile
  /// queue.
  std::optional<aos::AOSConfig> AOS;
  /// --profile-repo DIR: warm-start from (and commit to) the
  /// cross-run profile repository. Empty = disabled.
  std::string RepoDir;
};

/// Pulls the workload name (a Table 1 workload or "phased") and the
/// shared VM, AOS and profile-repository options, then builds the
/// program. Errors route through \p Args' error handler.
RunSetup parseRunSetup(support::ArgParser &Args);

/// `report`'s options: the quality-monitor knobs (--every-ticks,
/// --hot-edges, --phase-threshold) go into \p S's profiler config; the
/// flight-recorder knobs (--overhead-budget, --drop-spike, --ring) are
/// returned.
tel::FlightRecorderConfig parseReportOptions(support::ArgParser &Args,
                                             RunSetup &S);

/// One run of \p S wired as the driver wires it. Construction loads the
/// repository entry (warm-starting the AOS on a hit, printing the
/// diagnostic on a rejection) and builds the exp::Run; run() commits a
/// finished run's profile and publishes the repo.* gauges. \p S must
/// outlive the run. A flight recorder set in S.Config.Recorder before
/// construction is dumped at the end of run() and feeds the report.
class DriverRun {
public:
  explicit DriverRun(RunSetup &S);

  vm::RunState run();

  vm::VirtualMachine &vm() { return R->vm(); }
  const aos::AdaptiveSystem *adaptive() const { return R->adaptive(); }

  /// The report document's inputs after run().
  aos::ReportInputs reportInputs();

private:
  /// The report's repo section (Present only with --profile-repo).
  aos::RepoReport repoReport() const;

  RunSetup &S;
  std::unique_ptr<prof::ProfileRepository> Repo;
  prof::RepoKey Key;
  prof::RepoLoadResult Load;
  prof::RepoCommitResult Commit;
  std::optional<Run> R;
  vm::RunState State = vm::RunState::Running;
};

} // namespace cbs::exp

#endif // CBSVM_EXPERIMENTS_RUNDRIVER_H
