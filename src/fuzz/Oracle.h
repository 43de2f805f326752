//===- fuzz/Oracle.h - Differential invariant oracles -----------*- C++ -*-===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pluggable oracle registry of differential invariants the fuzzer
/// checks on every generated program. An oracle receives a program and
/// the campaign seed, runs whatever VM configurations it needs, and
/// returns an empty string when its invariant holds — or a diagnostic
/// message when it is violated, at which point the campaign driver
/// reduces the program and emits a replayable artifact.
///
/// Oracle contract:
///  - check() must be deterministic: a pure function of (program,
///    seed). All VM runs inside an oracle are seeded; no host time, no
///    global state.
///  - check() must be self-contained: it builds every run it compares
///    from the inputs, so a reduced program can be re-checked from the
///    artifact alone.
///  - Every VM run goes through the input's ProgramRuns, which every
///    caller must pass, built over the input's program and seed. A run
///    whose configuration more than one oracle builds is one of its
///    shared runs, built by one function and run at most once per
///    program. runFuzz builds one ProgramRuns per program, shared by
///    every selected oracle; the reducer builds a fresh one per
///    candidate and replayArtifact one per replay. Runs are pure
///    functions of (program, config, seed), so sharing one changes no
///    result: check() is still a function of (program, seed) alone.
///  - A returned message should name the compared configurations and
///    the first observed divergence, not dump whole outputs.
///
/// Built-in oracles (OracleRegistry::builtin), with the shared runs
/// each reads:
///  - output-stability: optimized vs unoptimized and profiling-on vs
///    profiling-off runs produce identical Print output and heap stats.
///    Reads baseline(), and exhaustive() as the inline plan's profile.
///  - cbs-subset: the CBS-sampled DCG's support is a subset of the
///    exhaustive profile, with overlap above a seed-stable floor.
///    Reads exhaustive().
///  - profile-roundtrip: serialize → parse → serialize of any sampled
///    profile is byte-identical and validates against the program.
///    Reads cbs(0) as its sampled profile.
///  - shard-determinism: a grid of profiled runs commits bitwise-equal
///    profiles through ParallelRunner at --jobs 1 and 4. The jobs-1
///    side reads cbs(0..2); the jobs-4 side runs the same three
///    configurations again on the oracle's one long-lived runner, so
///    its workers start once per oracle, not once per program. (The id
///    predates the one-thread profile repository and is kept:
///    per-oracle fuzz timings are keyed by it.)
///  - async-compile-stability, deopt-storm-stability, osr-stability,
///    warm-start-stability: one table-driven AOS stability oracle each.
///    Every row of an oracle's table is one adaptive configuration
///    (the AOSConfig's compile latency scale, OSR on/off, forced
///    invalidation storm, warm start from a cold run's profile), run at
///    --compile-jobs 0 and compared against the no-AOS baseline's
///    output and heap; rows marked for it also run at --compile-jobs 2
///    and must be byte-identical down to the sample count and
///    serialized profile.
///    Each reads baseline(); a row with neither storm nor warm start
///    reads adaptive() as its compile-jobs-0 run, and a warm row's cold
///    run is adaptive() at the row's latency and OSR setting.
///      async-compile-stability: latency 0, 8, and 1 (+ jobs check);
///      deopt-storm-stability:   the storm at latency 1 (+ jobs);
///      osr-stability:           OSR at latency 0, 8, 1 (+ jobs), and
///                               OSR under the storm (+ jobs);
///      warm-start-stability:    warm start at latency 1 (+ jobs); its
///                               cold run is async-compile-stability's
///                               aos-latency-1 run.
///
//===----------------------------------------------------------------------===//

#ifndef CBSVM_FUZZ_ORACLE_H
#define CBSVM_FUZZ_ORACLE_H

#include "aos/AdaptiveSystem.h"
#include "bytecode/Program.h"
#include "profiling/DCGSnapshot.h"
#include "vm/VMConfig.h"
#include "vm/VMStats.h"

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cbs::fuzz {

/// Everything one oracle VM run yields that oracles compare.
struct RunResult {
  vm::RunState State = vm::RunState::Running;
  std::string Trap;
  std::vector<int64_t> Output;
  size_t HeapObjects = 0;
  uint64_t HeapBytes = 0;
  prof::DCGSnapshot Profile;
  uint64_t Samples = 0;
  uint64_t Calls = 0;
};

/// The VM runs of one program's oracle checks. The shared runs are
/// the configurations more than one oracle compares; each is run at
/// its first request and kept for the object's lifetime (references
/// stay valid). Every other run goes through run(), which only counts.
/// The shared accessors belong to the thread that owns the object;
/// run() may be called from several threads at once.
class ProgramRuns {
public:
  ProgramRuns(const bc::Program &P, uint64_t Seed) : P(P), Seed(Seed) {}
  ProgramRuns(const ProgramRuns &) = delete;
  ProgramRuns &operator=(const ProgramRuns &) = delete;

  /// No profiler, no AOS: the reference semantics.
  const RunResult &baseline();
  /// The registry's "exhaustive" profiler, nothing else changed.
  const RunResult &exhaustive();
  /// CBS at 64 samples per tick and a 2000-cycle timer, seeded with
  /// Seed + \p Offset.
  const RunResult &cbs(unsigned Offset);
  /// The AOS with a default AOSConfig (compile-jobs 0) whose
  /// CompileLatencyScale is \p LatencyScale, over CBS at stride 2, 4
  /// samples per tick and a 2000-cycle timer, with OSR on or off.
  const RunResult &adaptive(double LatencyScale, bool OSR);

  /// An unshared run of \p Config, with the AOS attached when \p AOS
  /// is set.
  RunResult run(vm::VMConfig Config,
                std::optional<aos::AOSConfig> AOS = std::nullopt);

  const bc::Program &program() const { return P; }
  uint64_t seed() const { return Seed; }
  /// VM runs made so far, shared and unshared.
  unsigned vmRuns() const { return VmRuns; }

private:
  const bc::Program &P;
  uint64_t Seed;
  std::atomic<unsigned> VmRuns{0};
  std::optional<RunResult> Baseline, Exhaustive;
  std::map<unsigned, RunResult> Cbs;
  std::map<std::pair<double, bool>, RunResult> Adaptive;
};

struct OracleInput {
  const bc::Program &P;
  /// Campaign seed for this program: every VM configuration an oracle
  /// builds derives its VMConfig::Seed from it.
  uint64_t Seed;
  /// The runs this program's checks share, built over (P, Seed).
  ProgramRuns &Runs;
};

class Oracle {
public:
  virtual ~Oracle();

  /// Stable identifier (artifact field, --oracle filter).
  virtual const char *id() const = 0;
  /// One-line human description for `cbsvm fuzz --list-oracles`.
  virtual const char *describe() const = 0;
  /// Empty string = invariant holds; else the violation message.
  virtual std::string check(const OracleInput &In) const = 0;
};

/// Owns a set of oracles; lookup by id, iteration in registration
/// order (which is deterministic, so campaign output is too).
class OracleRegistry {
public:
  OracleRegistry() = default;
  OracleRegistry(OracleRegistry &&) = default;
  OracleRegistry &operator=(OracleRegistry &&) = default;

  void add(std::unique_ptr<Oracle> O);

  const Oracle *find(std::string_view Id) const;
  const std::vector<std::unique_ptr<Oracle>> &all() const { return Oracles; }

  /// The eight built-in differential invariants.
  static OracleRegistry builtin();

private:
  std::vector<std::unique_ptr<Oracle>> Oracles;
};

/// Test-only hook: registers the deliberately broken "broken" oracle,
/// which flags any program that prints at all. Used to exercise the
/// reducer and the artifact/replay path end to end (a reduced program
/// must still print, so minimization bottoms out at a one-print main).
/// Never part of builtin(); `cbsvm fuzz --broken-oracle` and the unit
/// tests opt in explicitly.
void addBrokenOracleForTesting(OracleRegistry &R);

} // namespace cbs::fuzz

#endif // CBSVM_FUZZ_ORACLE_H
