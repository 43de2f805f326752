//===- profiling/ProfileRepository.h - cross-run profile store --*- C++ -*-===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The persistent cross-run profile repository: one directory holding
/// one v2 profile (ProfileCodec) per workload, keyed by
/// (workload name, program content hash, profiler personality). A run
/// loads its entry at startup to warm-start the adaptive system, and
/// commits its own snapshot at VM shutdown, merging it into the stored
/// history.
///
/// The paper collects its profiles *within* a run; persisting them is
/// the classic next exploitation step (profile-guided optimization
/// across process lifetimes): the second run of a workload should not
/// have to re-learn the same hot edges from scratch.
///
/// Safety model — a profile is advice, never trusted blindly:
///
///  - The file name is only the lookup key. The entry's embedded
///    program hash and personality must match the current run exactly;
///    any mismatch (or a corrupt/truncated/v1 file) is a clean
///    skip-with-diagnostic, counted by the caller's repo.rejected
///    gauge, never a crash or a silent seed.
///  - A loaded profile only *schedules* compilations earlier. Stale
///    advice produces code the existing staleness policing
///    (deoptimization guards, quality-monitor phase shifts, OSR)
///    already corrects.
///
/// Merge policy (all integer arithmetic, pinned by
/// ProfileRepositoryTest): when a run commits over an existing entry,
///
///   merged(e) = old(e) * AgeDecayBp/10000 + new(e) * conf/10000
///   conf      = 10000 * W / (W + ConfidencePivot)
///
/// where W is the new run's total profile weight. Old evidence decays
/// geometrically (a phase the program left eventually vanishes), and a
/// short low-weight run contributes proportionally little (its sampled
/// profile is noisy). Zero-rounded edges drop out. The first commit
/// stores the run verbatim.
///
/// Commits write to a temp file and rename() into place, so concurrent
/// runs of the same workload are last-writer-wins, never torn.
///
//===----------------------------------------------------------------------===//

#ifndef CBSVM_PROFILING_PROFILEREPOSITORY_H
#define CBSVM_PROFILING_PROFILEREPOSITORY_H

#include "profiling/ProfileCodec.h"

#include <cstdint>
#include <optional>
#include <string>

namespace cbs::prof {

/// What a run looks up (and stamps) its repository entry with.
struct RepoKey {
  std::string Workload;
  uint64_t ProgramHash = 0;
  std::string Personality;
};

/// A usable repository entry: the merged profile and its provenance.
struct RepoEntry {
  DCGSnapshot Graph;
  ProfileMeta Meta;
};

struct RepoLoadResult {
  std::optional<RepoEntry> Entry;
  /// True when a file existed but was unusable (corrupt, wrong version,
  /// hash/personality mismatch). False for a plain miss.
  bool Rejected = false;
  /// Why the entry was rejected (empty on success and on a plain miss).
  std::string Diagnostic;

  bool ok() const { return Entry.has_value(); }
};

struct RepoCommitResult {
  bool Committed = false;
  /// Run counter stored with the merged entry.
  uint64_t Runs = 0;
  std::string Error;
};

class ProfileRepository {
public:
  /// Geometric decay applied to the stored profile per commit (basis
  /// points of 10000). 5000 = half-life of one run.
  static constexpr uint64_t AgeDecayBp = 5'000;
  /// Weight at which a new run earns half confidence: a run with total
  /// profile weight W contributes scaled by W / (W + ConfidencePivot).
  static constexpr uint64_t ConfidencePivot = 1'024;

  /// \p Dir is created (recursively) on the first commit; load from a
  /// missing directory is a plain miss.
  explicit ProfileRepository(std::string Dir);

  const std::string &dir() const { return Dir; }

  /// Filesystem path of \p Workload's entry ("<dir>/<sanitized>.dcg").
  std::string pathFor(const std::string &Workload) const;

  /// Loads the entry for \p Key. Missing file: plain miss. Unusable or
  /// mismatched file: Rejected with a diagnostic — never an exception,
  /// never a silently-seeded profile.
  RepoLoadResult load(const RepoKey &Key) const;

  /// Merges \p Run into the stored entry (or stores it verbatim when
  /// no usable entry exists — a rejected entry is overwritten) and
  /// atomically replaces the file. \p RunCycles is the run's virtual
  /// cycle count, accumulated into the entry's history.
  RepoCommitResult commit(const RepoKey &Key, const DCGSnapshot &Run,
                          uint64_t RunCycles);

  /// The pinned merge (see file comment). Exposed so tests can pin the
  /// math without going through the filesystem.
  static DCGSnapshot merge(const DCGSnapshot &Old, const DCGSnapshot &New);

private:
  std::string Dir;
};

} // namespace cbs::prof

#endif // CBSVM_PROFILING_PROFILEREPOSITORY_H
