//===- fuzz/ProgramSpec.h - Reducible program description -------*- C++ -*-===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The intermediate representation the fuzzer operates on. A
/// ProgramSpec is the *decision list* behind one generated program:
/// which virtual implementations exist, what each static method's body
/// does step by step, what main calls (and how often), and which worker
/// threads are spawned. Programs are built from specs deterministically
/// (buildProgram), so the delta-debugging reducer can mutate the spec —
/// drop a method, unroll a call to a constant, shrink a loop — and
/// rebuild a verifier-clean program after every mutation, which a flat
/// instruction vector would not survive.
///
/// The build rules keep any spec well-formed by construction:
///  - method i may only call methods j < i (the DAG that guarantees
///    termination), which every mutation preserves by remapping;
///  - steps that need operands consume the tracked operand stack when
///    it is deep enough and otherwise push their own recorded values,
///    so deleting an earlier step never unbalances a later one.
///
/// Specs serialize to JSON (the replay-artifact payload) and back.
///
//===----------------------------------------------------------------------===//

#ifndef CBSVM_FUZZ_PROGRAMSPEC_H
#define CBSVM_FUZZ_PROGRAMSPEC_H

#include "bytecode/Program.h"

#include <cstdint>
#include <string>
#include <vector>

namespace cbs::json {
struct JsonValue;
class JsonWriter;
}

namespace cbs::fuzz {

/// Arithmetic flavour of one virtual implementation's body.
enum class ImplOp : uint8_t { Add, Mul, Xor };

/// One implementation of the program's single virtual selector.
struct ImplSpec {
  ImplOp Op = ImplOp::Add;
  /// Constant mixed into the argument.
  int32_t Operand = 1;
  /// Modelled work cycles appended to the body (0 = none).
  int32_t WorkCycles = 0;
};

/// Where a pushed value comes from at build time.
struct ValueSrc {
  bool FromArg = false;
  uint32_t Slot = 0; ///< argument slot when FromArg
  int32_t Const = 0; ///< literal otherwise
};

/// One body-building step of a static method.
enum class StepKind : uint8_t {
  Push,        ///< push Values[0]
  BinOp,       ///< A selects add/sub/mul/and/xor; degrades to Push when shallow
  Div,         ///< guarded division by constant A >= 1
  Accumulate,  ///< fold the stack top into the scratch local
  CallStatic,  ///< call method Callee (< this method's index) with Values args
  CallVirtual, ///< virtual dispatch on a fresh instance of impl ImplIndex
  Loop,        ///< counted loop: A iterations, B work cycles per trip (0=none)
  Diamond,     ///< branch diamond merging constant A or B
  FieldTrip,   ///< store constant A into a fresh object's field B (0 or 1)
};

struct StepSpec {
  StepKind Kind = StepKind::Push;
  int32_t A = 0;
  int32_t B = 0;
  uint32_t Callee = 0;    ///< CallStatic target (index into Methods)
  uint32_t ImplIndex = 0; ///< CallVirtual receiver class (index into Impls)
  /// Self-provided operands: Push/BinOp/Div/Accumulate/Diamond carry one
  /// fallback value, CallStatic carries one per callee argument,
  /// CallVirtual carries its single argument.
  std::vector<ValueSrc> Values;
};

struct MethodSpec {
  uint32_t NumArgs = 0;
  std::vector<StepSpec> Steps;
};

/// Callee called Repeat times with Args. As one of main's calls, main
/// prints each result, and Repeat > 1 wraps the call in a counted loop
/// — the phase-shift shape: consecutive calls with large Repeats
/// emphasize different callees over time. As a worker, it is one
/// spawned thread: a static void wrapper that discards the results
/// (workers never print, so program output stays independent of
/// thread interleaving).
struct CallSpec {
  uint32_t Callee = 0;
  std::vector<int32_t> Args;
  uint32_t Repeat = 1;
};

struct ProgramSpec {
  std::vector<ImplSpec> Impls;     ///< at least one
  std::vector<MethodSpec> Methods; ///< DAG order: i calls only j < i
  std::vector<CallSpec> MainCalls;
  std::vector<CallSpec> Workers;

  /// Reduction progress measure: total number of spec atoms (impls,
  /// methods, steps, main calls, workers). Strictly decreases under
  /// every dropping transformation.
  size_t atomCount() const;
};

/// Deterministically materializes \p Spec as a verifier-clean program.
/// Any spec whose cross-references are in range (checked by
/// validateSpec) builds successfully.
bc::Program buildProgram(const ProgramSpec &Spec);

/// Structural validity: at least one impl, call targets in range and
/// DAG-ordered, impl indices in range, argument value lists sized to
/// their callee. Returns an empty string when fine, else a description
/// of the first problem.
std::string validateSpec(const ProgramSpec &Spec);

/// Writes \p Spec as a JSON object onto \p W.
void writeSpec(const ProgramSpec &Spec, json::JsonWriter &W);

/// Parses a spec previously written by writeSpec. Returns the spec, or
/// sets \p Error and returns an empty spec.
ProgramSpec parseSpec(const json::JsonValue &V, std::string &Error);

} // namespace cbs::fuzz

#endif // CBSVM_FUZZ_PROGRAMSPEC_H
