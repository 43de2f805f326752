//===- fuzz/ProgramGenerator.h - Seeded program generator -------*- C++ -*-===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The seeded random-program generator behind the differential fuzzer
/// (and the property-test suites). Generation is split in two stages:
/// a seed expands into a ProgramSpec — the mutable decision list the
/// reducer shrinks — and buildProgram materializes the spec as a
/// verifier-clean bc::Program. Same (config, seed) always yields the
/// same spec and therefore the same program.
///
/// Generated programs have:
///   - a DAG of static methods (method i calls only j < i, so they
///     terminate),
///   - a small class family with a virtual selector (so guarded
///     inlining has something to do),
///   - bounded counted loops, branch diamonds, field traffic, and
///     guarded division,
/// and, depending on the shape knobs, repeated phase-shifted main call
/// loops and spawned worker threads.
///
//===----------------------------------------------------------------------===//

#ifndef CBSVM_FUZZ_PROGRAMGENERATOR_H
#define CBSVM_FUZZ_PROGRAMGENERATOR_H

#include "fuzz/ProgramSpec.h"

namespace cbs::json {
struct JsonValue;
class JsonWriter;
}

namespace cbs::fuzz {

/// Knobs controlling generated program shape. All ranges are
/// inclusive; the defaults reproduce the original hand-tuned test
/// generator (small, fast, single-threaded programs).
struct ShapeConfig {
  /// Static-method DAG size (depth and width grow together: later
  /// methods call earlier ones).
  uint32_t MinMethods = 3;
  uint32_t MaxMethods = 7;
  /// Maximum int arguments per static method.
  uint32_t MaxArgs = 2;
  /// Virtual-dispatch fan-out: number of selector implementations.
  uint32_t MinVirtualImpls = 1;
  uint32_t MaxVirtualImpls = 3;
  /// Body-building steps per static method.
  uint32_t MinSteps = 4;
  uint32_t MaxSteps = 17;
  /// Counted-loop trip count ceiling.
  uint32_t MaxLoopTrip = 6;
  /// Calls performed (and printed) by main.
  uint32_t MinMainCalls = 2;
  uint32_t MaxMainCalls = 5;
  /// Ceiling on per-call repeat loops in main. 1 = straight-line main;
  /// larger values produce phase-shift programs whose hot callee
  /// changes over the run.
  uint32_t MaxCallRepeat = 1;
  /// Worker threads spawned from main (0 = single-threaded). Workers
  /// call into the method DAG but never print, so program output stays
  /// independent of thread interleaving.
  uint32_t MaxWorkerThreads = 0;
  /// Ceiling on each worker's call-repeat loop.
  uint32_t MaxWorkerRepeat = 8;

  /// A multi-threaded, phase-shifting variant of the defaults.
  static ShapeConfig threaded();

  /// A long-loop variant of the defaults: high trip counts and repeated
  /// main call loops, so frames sit inside loops long enough for
  /// installs (and invalidations) to land mid-loop. The shape the
  /// osr-stability oracle favours — on-stack replacement never fires in
  /// a program whose loops finish before the compile queue does.
  static ShapeConfig longLoops();
};

/// Serialization of the knobs (embedded in replay artifacts so a
/// reproduced campaign regenerates identical programs).
void writeShape(const ShapeConfig &Shape, json::JsonWriter &W);
ShapeConfig parseShape(const json::JsonValue &V, std::string &Error);

class ProgramGenerator {
public:
  explicit ProgramGenerator(ShapeConfig Shape = {}) : Shape(Shape) {}

  const ShapeConfig &shape() const { return Shape; }

  /// Expands \p Seed into the decision list. Deterministic.
  ProgramSpec makeSpec(uint64_t Seed) const;

  /// Convenience: makeSpec + buildProgram.
  bc::Program generate(uint64_t Seed) const {
    return buildProgram(makeSpec(Seed));
  }

private:
  ShapeConfig Shape;
};

/// The default-shape generator: ProgramGenerator() with the default
/// ShapeConfig, expanding \p Seed into one program.
inline bc::Program generateRandomProgram(uint64_t Seed) {
  return ProgramGenerator().generate(Seed);
}

} // namespace cbs::fuzz

#endif // CBSVM_FUZZ_PROGRAMGENERATOR_H
