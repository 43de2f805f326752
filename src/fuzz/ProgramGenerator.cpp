//===- fuzz/ProgramGenerator.cpp - Seeded program generator ----------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//

#include "fuzz/ProgramGenerator.h"

#include "support/Json.h"
#include "support/Random.h"

using namespace cbs;
using namespace cbs::fuzz;

ShapeConfig ShapeConfig::threaded() {
  ShapeConfig Shape;
  Shape.MaxWorkerThreads = 3;
  Shape.MaxCallRepeat = 6;
  return Shape;
}

ShapeConfig ShapeConfig::longLoops() {
  ShapeConfig Shape;
  Shape.MaxLoopTrip = 40;
  Shape.MaxCallRepeat = 8;
  return Shape;
}

namespace {

/// Inclusive uniform draw in [Lo, Hi] (degenerates gracefully when the
/// knobs are inverted).
uint32_t drawRange(RandomEngine &RNG, uint32_t Lo, uint32_t Hi) {
  if (Hi <= Lo)
    return Lo;
  return Lo + static_cast<uint32_t>(RNG.nextBelow(Hi - Lo + 1));
}

ValueSrc drawValue(RandomEngine &RNG, uint32_t NumArgs) {
  ValueSrc V;
  if (NumArgs > 0 && RNG.nextBool(0.4)) {
    V.FromArg = true;
    V.Slot = static_cast<uint32_t>(RNG.nextBelow(NumArgs));
  } else {
    V.Const = static_cast<int32_t>(RNG.nextInRange(-50, 50));
  }
  return V;
}

} // namespace

ProgramSpec ProgramGenerator::makeSpec(uint64_t Seed) const {
  RandomEngine RNG(Seed * 0x9E3779B97F4A7C15ULL + 1);
  ProgramSpec Spec;

  // Virtual-dispatch fan-out.
  uint32_t NumImpls =
      drawRange(RNG, std::max(1u, Shape.MinVirtualImpls),
                std::max(1u, Shape.MaxVirtualImpls));
  for (uint32_t I = 0; I != NumImpls; ++I) {
    ImplSpec Impl;
    Impl.Operand = static_cast<int32_t>(RNG.nextBelow(90)) + 1;
    switch (RNG.nextBelow(3)) {
    case 0:
      Impl.Op = ImplOp::Add;
      break;
    case 1:
      Impl.Op = ImplOp::Mul;
      break;
    default:
      Impl.Op = ImplOp::Xor;
      break;
    }
    if (RNG.nextBool(0.5))
      Impl.WorkCycles = static_cast<int32_t>(RNG.nextBelow(10)) + 1;
    Spec.Impls.push_back(Impl);
  }

  // Static method DAG.
  uint32_t NumMethods =
      drawRange(RNG, std::max(1u, Shape.MinMethods),
                std::max(1u, Shape.MaxMethods));
  for (uint32_t M = 0; M != NumMethods; ++M) {
    MethodSpec MS;
    MS.NumArgs = drawRange(RNG, 0, Shape.MaxArgs);
    Spec.Methods.push_back(std::move(MS));
  }

  for (uint32_t M = 0; M != NumMethods; ++M) {
    MethodSpec &MS = Spec.Methods[M];
    uint32_t Steps = drawRange(RNG, Shape.MinSteps, Shape.MaxSteps);
    for (uint32_t S = 0; S != Steps; ++S) {
      StepSpec Step;
      switch (RNG.nextBelow(10)) {
      case 0:
      case 1:
        Step.Kind = StepKind::Push;
        Step.Values.push_back(drawValue(RNG, MS.NumArgs));
        break;
      case 2:
        Step.Kind = StepKind::BinOp;
        Step.A = static_cast<int32_t>(RNG.nextBelow(5));
        Step.Values.push_back(drawValue(RNG, MS.NumArgs));
        break;
      case 3:
        Step.Kind = StepKind::Div;
        Step.A = static_cast<int32_t>(RNG.nextBelow(9)) + 1;
        Step.Values.push_back(drawValue(RNG, MS.NumArgs));
        break;
      case 4:
        Step.Kind = StepKind::Accumulate;
        Step.Values.push_back(drawValue(RNG, MS.NumArgs));
        break;
      case 5: {
        if (M == 0)
          continue; // method 0 has no lower callee
        Step.Kind = StepKind::CallStatic;
        Step.Callee = static_cast<uint32_t>(RNG.nextBelow(M));
        for (uint32_t A = 0; A != Spec.Methods[Step.Callee].NumArgs; ++A)
          Step.Values.push_back(drawValue(RNG, MS.NumArgs));
        break;
      }
      case 6:
        Step.Kind = StepKind::CallVirtual;
        Step.ImplIndex = static_cast<uint32_t>(RNG.nextBelow(NumImpls));
        Step.Values.push_back(drawValue(RNG, MS.NumArgs));
        break;
      case 7:
        Step.Kind = StepKind::Loop;
        Step.A =
            static_cast<int32_t>(drawRange(RNG, 1, Shape.MaxLoopTrip));
        if (RNG.nextBool(0.3))
          Step.B = static_cast<int32_t>(RNG.nextBelow(20)) + 1;
        break;
      case 8:
        Step.Kind = StepKind::Diamond;
        Step.A = static_cast<int32_t>(RNG.nextBelow(100));
        Step.B = static_cast<int32_t>(RNG.nextBelow(100)) + 100;
        Step.Values.push_back(drawValue(RNG, MS.NumArgs));
        break;
      default:
        Step.Kind = StepKind::FieldTrip;
        Step.A = static_cast<int32_t>(RNG.nextBelow(1000));
        Step.B = static_cast<int32_t>(RNG.nextBelow(2));
        break;
      }
      MS.Steps.push_back(std::move(Step));
    }
  }

  auto drawCall = [&](uint32_t MaxRepeat) {
    CallSpec Call;
    Call.Callee = static_cast<uint32_t>(RNG.nextBelow(NumMethods));
    for (uint32_t A = 0; A != Spec.Methods[Call.Callee].NumArgs; ++A)
      Call.Args.push_back(static_cast<int32_t>(RNG.nextInRange(-9, 9)));
    Call.Repeat = drawRange(RNG, 1, std::max(1u, MaxRepeat));
    return Call;
  };

  // main's call list (with optional phase-shift repeat loops).
  uint32_t Calls = drawRange(RNG, std::max(1u, Shape.MinMainCalls),
                             std::max(1u, Shape.MaxMainCalls));
  for (uint32_t C = 0; C != Calls; ++C)
    Spec.MainCalls.push_back(drawCall(Shape.MaxCallRepeat));

  // Worker threads.
  uint32_t Workers = Shape.MaxWorkerThreads == 0
                         ? 0
                         : drawRange(RNG, 0, Shape.MaxWorkerThreads);
  for (uint32_t W = 0; W != Workers; ++W)
    Spec.Workers.push_back(drawCall(Shape.MaxWorkerRepeat));

  return Spec;
}

//===----------------------------------------------------------------------===//
// Shape serialization
//===----------------------------------------------------------------------===//

void fuzz::writeShape(const ShapeConfig &Shape, json::JsonWriter &W) {
  W.beginObject();
  W.key("minMethods");
  W.value(Shape.MinMethods);
  W.key("maxMethods");
  W.value(Shape.MaxMethods);
  W.key("maxArgs");
  W.value(Shape.MaxArgs);
  W.key("minVirtualImpls");
  W.value(Shape.MinVirtualImpls);
  W.key("maxVirtualImpls");
  W.value(Shape.MaxVirtualImpls);
  W.key("minSteps");
  W.value(Shape.MinSteps);
  W.key("maxSteps");
  W.value(Shape.MaxSteps);
  W.key("maxLoopTrip");
  W.value(Shape.MaxLoopTrip);
  W.key("minMainCalls");
  W.value(Shape.MinMainCalls);
  W.key("maxMainCalls");
  W.value(Shape.MaxMainCalls);
  W.key("maxCallRepeat");
  W.value(Shape.MaxCallRepeat);
  W.key("maxWorkerThreads");
  W.value(Shape.MaxWorkerThreads);
  W.key("maxWorkerRepeat");
  W.value(Shape.MaxWorkerRepeat);
  W.endObject();
}

ShapeConfig fuzz::parseShape(const json::JsonValue &V, std::string &Error) {
  ShapeConfig Shape;
  Error.clear();
  if (!V.isObject()) {
    Error = "shape is not an object";
    return Shape;
  }
  auto Get = [&](const char *Name, uint32_t Default) {
    return static_cast<uint32_t>(V.numberOr(Name, Default));
  };
  Shape.MinMethods = Get("minMethods", Shape.MinMethods);
  Shape.MaxMethods = Get("maxMethods", Shape.MaxMethods);
  Shape.MaxArgs = Get("maxArgs", Shape.MaxArgs);
  Shape.MinVirtualImpls = Get("minVirtualImpls", Shape.MinVirtualImpls);
  Shape.MaxVirtualImpls = Get("maxVirtualImpls", Shape.MaxVirtualImpls);
  Shape.MinSteps = Get("minSteps", Shape.MinSteps);
  Shape.MaxSteps = Get("maxSteps", Shape.MaxSteps);
  Shape.MaxLoopTrip = Get("maxLoopTrip", Shape.MaxLoopTrip);
  Shape.MinMainCalls = Get("minMainCalls", Shape.MinMainCalls);
  Shape.MaxMainCalls = Get("maxMainCalls", Shape.MaxMainCalls);
  Shape.MaxCallRepeat = Get("maxCallRepeat", Shape.MaxCallRepeat);
  Shape.MaxWorkerThreads = Get("maxWorkerThreads", Shape.MaxWorkerThreads);
  Shape.MaxWorkerRepeat = Get("maxWorkerRepeat", Shape.MaxWorkerRepeat);
  return Shape;
}
