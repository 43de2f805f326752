//===- fuzz/Fuzzer.h - Differential fuzzing campaign driver -----*- C++ -*-===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The campaign driver behind `cbsvm fuzz`: a grid of seeds fanned out
/// over the deterministic ParallelRunner. Each task generates one
/// program, verifies it, checks every selected oracle, and — on a
/// violation — runs the delta-debugging reducer and serializes a
/// replayable artifact. All observable output (log lines, artifact
/// files, metrics) is produced at commit time in strict seed order, so
/// a campaign's results are byte-identical at any --jobs value.
///
//===----------------------------------------------------------------------===//

#ifndef CBSVM_FUZZ_FUZZER_H
#define CBSVM_FUZZ_FUZZER_H

#include "fuzz/Artifact.h"
#include "fuzz/Oracle.h"
#include "fuzz/ProgramGenerator.h"
#include "fuzz/Reducer.h"

#include <iosfwd>
#include <string>
#include <vector>

namespace cbs::tel {
class MetricRegistry;
}

namespace cbs::fuzz {

struct FuzzOptions {
  /// First seed; run i uses seed SeedBase + i.
  uint64_t SeedBase = 1;
  /// Number of programs to generate and check.
  unsigned Runs = 100;
  /// Worker threads (0 = ParallelRunner's resolveJobs default).
  unsigned Jobs = 1;
  /// Restrict to the oracle with this id (empty = all registered).
  std::string OracleFilter;
  /// Directory for violation artifacts (empty = keep them in memory
  /// only; the report still carries the JSON).
  std::string ArtifactDir;
  /// Program-shape knobs.
  ShapeConfig Shape;
  /// Run the reducer on violations (replay artifacts then hold the
  /// minimized spec rather than the original).
  bool Reduce = true;
};

/// One oracle violation, post-reduction.
struct Violation {
  uint64_t Seed = 0;
  std::string OracleId;
  /// Violation message of the (reduced) program.
  std::string Message;
  /// The replayable artifact document.
  std::string ArtifactJson;
  /// Where the artifact was written ("" when ArtifactDir is unset or
  /// the write failed — see FuzzReport::UnwrittenArtifacts).
  std::string ArtifactPath;
  /// Reduction statistics (Original == Reduced when reduction is off
  /// or nothing could be removed).
  size_t OriginalAtoms = 0;
  size_t ReducedAtoms = 0;
  unsigned ReduceChecks = 0;
};

struct FuzzReport {
  unsigned Runs = 0;
  unsigned OracleChecks = 0;
  std::vector<Violation> Violations;
  /// Artifact files that could not be written, in commit order.
  std::vector<std::string> UnwrittenArtifacts;

  bool clean() const { return Violations.empty(); }
};

/// Runs a campaign. \p Registry supplies the oracles (builtin() plus
/// any test hooks); \p Log receives one deterministic progress line per
/// violation plus the summary (may be null). \p Metrics (may be null)
/// receives fuzz.* counters: fuzz.runs, fuzz.oracle_checks,
/// fuzz.violations, fuzz.reduce_checks, fuzz.reduce_accepted,
/// fuzz.artifacts_written, and fuzz.vm_runs (every oracle VM run,
/// reduction included; a run the oracles share counts once per
/// program).
FuzzReport runFuzz(const FuzzOptions &Options, const OracleRegistry &Registry,
                   tel::MetricRegistry *Metrics = nullptr,
                   std::ostream *Log = nullptr);

/// Replays an artifact: rebuilds the spec, re-checks the recorded
/// oracle under the recorded seed. Returns the violation message
/// (empty = the violation did NOT reproduce). Sets \p Error on
/// structural problems (unknown oracle, invalid spec).
std::string replayArtifact(const Artifact &A, const OracleRegistry &Registry,
                           std::string &Error);

} // namespace cbs::fuzz

#endif // CBSVM_FUZZ_FUZZER_H
