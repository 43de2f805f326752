//===- fuzz/Reducer.h - Delta-debugging program reducer ---------*- C++ -*-===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Greedy delta-debugging over ProgramSpec: given a spec whose built
/// program violates an oracle, repeatedly try structure-shrinking
/// transformations and keep each one that still reproduces the
/// violation, until a fixpoint (or the check budget runs out). Works on
/// the spec, not the program, so every candidate rebuilds through
/// buildProgram and is verifier-clean by construction.
///
/// Transformations, in the order tried each round:
///  - drop a whole static method (call sites targeting it become
///    constant pushes; higher callee indices are remapped),
///  - drop a main call / worker / body step,
///  - drop a virtual implementation (at least one is kept; ImplIndex
///    references are remapped),
///  - halve loop trip counts and main/worker repeat counts.
///
//===----------------------------------------------------------------------===//

#ifndef CBSVM_FUZZ_REDUCER_H
#define CBSVM_FUZZ_REDUCER_H

#include "fuzz/Oracle.h"
#include "fuzz/ProgramSpec.h"

namespace cbs::fuzz {

struct ReduceOptions {
  /// Ceiling on oracle re-checks (each candidate costs one). The greedy
  /// pass usually converges far below this; the bound keeps pathological
  /// cases from stalling a campaign.
  unsigned MaxChecks = 400;
};

struct ReduceResult {
  /// The minimized spec; equals the input if nothing could be removed.
  ProgramSpec Spec;
  /// The violation message of the *minimized* program (never empty —
  /// reduction only accepts candidates that still fail).
  std::string Message;
  /// Oracle invocations spent.
  unsigned ChecksUsed = 0;
  /// Candidates that still reproduced the violation.
  unsigned Accepted = 0;
  /// VM runs the checks made, each candidate through a ProgramRuns of
  /// its own.
  unsigned VmRuns = 0;
};

/// Shrinks \p Spec while \p O keeps rejecting the built program.
/// \p Seed is the campaign seed the oracle was violated under (reduction
/// re-checks under the same seed). \p Message is the original violation
/// text, used as the result message if no candidate is accepted.
/// Precondition: buildProgram(Spec) currently fails \p O.
ReduceResult reduceSpec(const ProgramSpec &Spec, const Oracle &O,
                        uint64_t Seed, std::string Message,
                        const ReduceOptions &Options = {});

} // namespace cbs::fuzz

#endif // CBSVM_FUZZ_REDUCER_H
