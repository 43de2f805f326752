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
///  - A returned message should name the compared configurations and
///    the first observed divergence, not dump whole outputs.
///
/// Built-in oracles (OracleRegistry::builtin):
///  - output-stability: optimized vs unoptimized and profiling-on vs
///    profiling-off runs produce identical Print output and heap stats.
///  - cbs-subset: the CBS-sampled DCG's support is a subset of the
///    exhaustive profile, with overlap above a seed-stable floor.
///  - profile-roundtrip: serialize → parse → serialize of any sampled
///    profile is byte-identical and validates against the program.
///  - shard-determinism: a grid of profiled runs commits bitwise-equal
///    profiles through ParallelRunner at --jobs 1 and 4. (The id
///    predates the one-thread profile repository and is kept:
///    per-oracle fuzz timings are keyed by it.)
///  - async-compile-stability, deopt-storm-stability, osr-stability,
///    warm-start-stability: one table-driven AOS stability oracle each.
///    Every row of an oracle's table is one adaptive configuration
///    (compile latency scale, OSR on/off, forced invalidation storm,
///    warm start from a cold run's profile), run at --compile-jobs 0
///    and compared against the no-AOS baseline's output and heap; rows
///    marked for it also run at --compile-jobs 2 and must be
///    byte-identical down to the sample count and serialized profile.
///      async-compile-stability: latency 0, 8, and 1 (+ jobs check);
///      deopt-storm-stability:   the storm at latency 1 (+ jobs);
///      osr-stability:           OSR at latency 0, 8, 1 (+ jobs), and
///                               OSR under the storm (+ jobs);
///      warm-start-stability:    warm start at latency 1 (+ jobs).
///
//===----------------------------------------------------------------------===//

#ifndef CBSVM_FUZZ_ORACLE_H
#define CBSVM_FUZZ_ORACLE_H

#include "bytecode/Program.h"

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace cbs::fuzz {

struct OracleInput {
  const bc::Program &P;
  /// Campaign seed for this program: every VM configuration an oracle
  /// builds derives its VMConfig::Seed from it.
  uint64_t Seed = 1;
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
