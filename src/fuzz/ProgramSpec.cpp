//===- fuzz/ProgramSpec.cpp - Reducible program description ----------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//

#include "fuzz/ProgramSpec.h"

#include "bytecode/Builder.h"
#include "support/Json.h"

#include <sstream>

using namespace cbs;
using namespace cbs::fuzz;

size_t ProgramSpec::atomCount() const {
  size_t N = Impls.size() + Methods.size() + MainCalls.size() + Workers.size();
  for (const MethodSpec &M : Methods)
    N += M.Steps.size();
  return N;
}

//===----------------------------------------------------------------------===//
// Validation
//===----------------------------------------------------------------------===//

std::string fuzz::validateSpec(const ProgramSpec &Spec) {
  std::ostringstream Err;
  if (Spec.Impls.empty())
    return "spec has no virtual implementations";
  for (size_t M = 0; M != Spec.Methods.size(); ++M) {
    const MethodSpec &MS = Spec.Methods[M];
    for (size_t S = 0; S != MS.Steps.size(); ++S) {
      const StepSpec &Step = MS.Steps[S];
      switch (Step.Kind) {
      case StepKind::CallStatic:
        if (Step.Callee >= M) {
          Err << "method " << M << " step " << S
              << " calls non-lower method " << Step.Callee;
          return Err.str();
        }
        if (Step.Values.size() != Spec.Methods[Step.Callee].NumArgs) {
          Err << "method " << M << " step " << S
              << " carries a mis-sized argument list";
          return Err.str();
        }
        break;
      case StepKind::CallVirtual:
        if (Step.ImplIndex >= Spec.Impls.size()) {
          Err << "method " << M << " step " << S
              << " dispatches to unknown impl " << Step.ImplIndex;
          return Err.str();
        }
        if (Step.Values.empty()) {
          Err << "method " << M << " step " << S
              << " has no virtual-call argument";
          return Err.str();
        }
        break;
      case StepKind::Loop:
        if (Step.A < 1) {
          Err << "method " << M << " step " << S
              << " loop must iterate at least once";
          return Err.str();
        }
        break;
      case StepKind::Div:
        if (Step.A < 1) {
          Err << "method " << M << " step " << S
              << " divides by a non-positive constant";
          return Err.str();
        }
        [[fallthrough]];
      case StepKind::Push:
      case StepKind::BinOp:
      case StepKind::Accumulate:
      case StepKind::Diamond:
        if (Step.Values.empty()) {
          Err << "method " << M << " step " << S
              << " has no fallback operand";
          return Err.str();
        }
        break;
      case StepKind::FieldTrip:
        if (Step.B < 0 || Step.B > 1) {
          Err << "method " << M << " step " << S
              << " touches a field outside the base class";
          return Err.str();
        }
        break;
      }
      for (const ValueSrc &V : Step.Values)
        if (V.FromArg && V.Slot >= MS.NumArgs) {
          Err << "method " << M << " step " << S
              << " reads argument slot " << V.Slot << " of " << MS.NumArgs;
          return Err.str();
        }
    }
  }
  const std::pair<const char *, const std::vector<CallSpec> *> Lists[] = {
      {"main call", &Spec.MainCalls}, {"worker", &Spec.Workers}};
  for (const auto &[What, Calls] : Lists)
    for (size_t C = 0; C != Calls->size(); ++C) {
      const CallSpec &Call = (*Calls)[C];
      if (Call.Callee >= Spec.Methods.size()) {
        Err << What << ' ' << C << " targets unknown method " << Call.Callee;
        return Err.str();
      }
      uint32_t NumArgs = Spec.Methods[Call.Callee].NumArgs;
      if (Call.Args.size() != NumArgs) {
        Err << What << ' ' << C << " carries " << Call.Args.size()
            << " args for a method taking " << NumArgs;
        return Err.str();
      }
      if (Call.Repeat < 1)
        return std::string(What) + " repeat must be at least 1";
    }
  return "";
}

//===----------------------------------------------------------------------===//
// Build
//===----------------------------------------------------------------------===//

namespace {

/// Builds one static method body from its step list, tracking operand
/// stack depth exactly as the comments in ProgramSpec.h describe.
class BodyBuilder {
public:
  BodyBuilder(bc::MethodBuilder &MB, const MethodSpec &MS,
              const std::vector<bc::MethodId> &Methods,
              const std::vector<uint32_t> &ArgCounts,
              const std::vector<bc::ClassId> &Classes, bc::ClassId Base,
              bc::SelectorId Sel)
      : MB(MB), MS(MS), Methods(Methods), ArgCounts(ArgCounts),
        Classes(Classes), Base(Base), Sel(Sel) {}

  void run() {
    // Locals: [0, NumArgs) arguments, NumArgs the scratch accumulator,
    // beyond that loop counters and object temps.
    Scratch = MS.NumArgs;
    NextLocal = MS.NumArgs + 1;
    MB.iconst(0).istore(Scratch);
    for (const StepSpec &Step : MS.Steps)
      build(Step);
    // Fold everything on the stack into one return value.
    if (Depth == 0) {
      MB.iload(Scratch);
      ++Depth;
    }
    while (Depth > 1) {
      MB.ixor();
      --Depth;
    }
    MB.iload(Scratch).iadd().iret();
  }

private:
  void push(const ValueSrc &V) {
    if (V.FromArg)
      MB.iload(V.Slot);
    else
      MB.iconst(V.Const);
    ++Depth;
  }

  void build(const StepSpec &Step) {
    switch (Step.Kind) {
    case StepKind::Push:
      push(Step.Values[0]);
      break;
    case StepKind::BinOp:
      if (Depth < 2) {
        push(Step.Values[0]);
        break;
      }
      switch (Step.A % 5) {
      case 0:
        MB.iadd();
        break;
      case 1:
        MB.isub();
        break;
      case 2:
        MB.imul();
        break;
      case 3:
        MB.iand();
        break;
      default:
        MB.ixor();
        break;
      }
      --Depth;
      break;
    case StepKind::Div:
      if (Depth < 1) {
        push(Step.Values[0]);
        break;
      }
      MB.iconst(Step.A).idiv();
      break;
    case StepKind::Accumulate:
      if (Depth < 1) {
        push(Step.Values[0]);
        break;
      }
      MB.iload(Scratch).iadd().istore(Scratch);
      --Depth;
      break;
    case StepKind::CallStatic: {
      for (const ValueSrc &V : Step.Values)
        push(V);
      MB.invokeStatic(Methods[Step.Callee]);
      Depth -= ArgCounts[Step.Callee];
      ++Depth;
      break;
    }
    case StepKind::CallVirtual:
      MB.newObject(Classes[Step.ImplIndex]);
      push(Step.Values[0]);
      MB.invokeVirtual(Sel);
      // Receiver + arg consumed, result pushed: net +1, already
      // accounted by push().
      break;
    case StepKind::Loop: {
      uint32_t Counter = NextLocal++;
      MB.iconst(Step.A).istore(Counter);
      bc::Label Head = MB.newLabel(), Exit = MB.newLabel();
      MB.bind(Head).iload(Counter).ifLe(Exit);
      MB.iload(Scratch).iconst(3).iadd().istore(Scratch);
      if (Step.B > 0)
        MB.work(Step.B);
      MB.iinc(Counter, -1).jump(Head);
      MB.bind(Exit);
      break;
    }
    case StepKind::Diamond: {
      if (Depth < 1) {
        push(Step.Values[0]);
        break;
      }
      bc::Label Else = MB.newLabel(), Join = MB.newLabel();
      MB.ifEq(Else);
      --Depth;
      MB.iconst(Step.A).jump(Join);
      MB.bind(Else).iconst(Step.B);
      MB.bind(Join);
      ++Depth;
      break;
    }
    case StepKind::FieldTrip: {
      uint32_t Temp = NextLocal++;
      MB.newObject(Base).astore(Temp);
      MB.aload(Temp);
      MB.iconst(Step.A);
      MB.putField(static_cast<uint32_t>(Step.B));
      break;
    }
    }
  }

  bc::MethodBuilder &MB;
  const MethodSpec &MS;
  const std::vector<bc::MethodId> &Methods;
  const std::vector<uint32_t> &ArgCounts;
  const std::vector<bc::ClassId> &Classes;
  bc::ClassId Base;
  bc::SelectorId Sel;
  uint32_t Depth = 0;
  uint32_t Scratch = 0;
  uint32_t NextLocal = 0;
};

/// Emits `Repeat x { push Args; call Callee; <Consume result> }`,
/// where Consume is print() for main calls and a store into \p
/// DiscardSlot for workers.
void emitRepeatedCall(bc::MethodBuilder &MB, bc::MethodId Callee,
                      const std::vector<int32_t> &Args, uint32_t Repeat,
                      bool Print, uint32_t CounterSlot) {
  auto CallOnce = [&] {
    for (int32_t A : Args)
      MB.iconst(A);
    MB.invokeStatic(Callee);
    if (Print)
      MB.print();
    else
      MB.istore(CounterSlot + 1); // discard into a scratch slot
  };
  if (Repeat == 1) {
    CallOnce();
    return;
  }
  MB.iconst(static_cast<int32_t>(Repeat)).istore(CounterSlot);
  bc::Label Head = MB.newLabel(), Exit = MB.newLabel();
  MB.bind(Head).iload(CounterSlot).ifLe(Exit);
  CallOnce();
  MB.iinc(CounterSlot, -1).jump(Head);
  MB.bind(Exit);
}

} // namespace

bc::Program fuzz::buildProgram(const ProgramSpec &Spec) {
  using namespace bc;
  ProgramBuilder PB;

  // Class family with one selector, one implementation per ImplSpec.
  ClassId Base = PB.addClass("RBase", InvalidClassId, 2);
  SelectorId Sel = PB.addSelector("rsel", 2);
  std::vector<ClassId> Classes;
  for (size_t I = 0; I != Spec.Impls.size(); ++I) {
    const ImplSpec &Impl = Spec.Impls[I];
    ClassId C = PB.addClass("RC" + std::to_string(I), Base, 1);
    Classes.push_back(C);
    MethodId Id = PB.declareVirtual(C, Sel, "impl", {}, /*HasResult=*/true);
    MethodBuilder MB = PB.defineMethod(Id);
    MB.iload(1).iconst(Impl.Operand);
    switch (Impl.Op) {
    case ImplOp::Add:
      MB.iadd();
      break;
    case ImplOp::Mul:
      MB.imul();
      break;
    case ImplOp::Xor:
      MB.ixor();
      break;
    }
    if (Impl.WorkCycles > 0)
      MB.work(Impl.WorkCycles);
    MB.iret();
    MB.finish();
  }

  // Static method DAG: declare all first so ids are dense and stable.
  std::vector<MethodId> Methods;
  std::vector<uint32_t> ArgCounts;
  for (size_t M = 0; M != Spec.Methods.size(); ++M) {
    ArgCounts.push_back(Spec.Methods[M].NumArgs);
    Methods.push_back(PB.declareStatic(
        "rm" + std::to_string(M),
        std::vector<ValKind>(Spec.Methods[M].NumArgs, ValKind::Int),
        /*HasResult=*/true));
  }
  for (size_t M = 0; M != Spec.Methods.size(); ++M) {
    MethodBuilder MB = PB.defineMethod(Methods[M]);
    BodyBuilder(MB, Spec.Methods[M], Methods, ArgCounts, Classes, Base, Sel)
        .run();
    MB.finish();
  }

  // Worker wrappers (spawn targets must be static, argumentless, void).
  std::vector<MethodId> WorkerIds;
  for (size_t W = 0; W != Spec.Workers.size(); ++W)
    WorkerIds.push_back(PB.declareStatic("worker" + std::to_string(W)));
  for (size_t W = 0; W != Spec.Workers.size(); ++W) {
    const CallSpec &Worker = Spec.Workers[W];
    MethodBuilder MB = PB.defineMethod(WorkerIds[W]);
    emitRepeatedCall(MB, Methods[Worker.Callee], Worker.Args, Worker.Repeat,
                     /*Print=*/false, /*CounterSlot=*/0);
    MB.finish();
  }

  // main: spawn workers, then perform (and print) the main calls.
  MethodId Main = PB.declareStatic("main");
  {
    MethodBuilder MB = PB.defineMethod(Main);
    for (MethodId W : WorkerIds)
      MB.spawn(W);
    uint32_t CounterSlot = 0;
    for (const CallSpec &Call : Spec.MainCalls) {
      emitRepeatedCall(MB, Methods[Call.Callee], Call.Args, Call.Repeat,
                       /*Print=*/true, CounterSlot);
      CounterSlot += 2; // fresh counter + discard pair per call
    }
    MB.finish();
  }
  return PB.finish(Main);
}

//===----------------------------------------------------------------------===//
// JSON serialization
//===----------------------------------------------------------------------===//

namespace {

const char *implOpName(ImplOp Op) {
  switch (Op) {
  case ImplOp::Add:
    return "add";
  case ImplOp::Mul:
    return "mul";
  case ImplOp::Xor:
    return "xor";
  }
  return "add";
}

const char *stepKindName(StepKind K) {
  switch (K) {
  case StepKind::Push:
    return "push";
  case StepKind::BinOp:
    return "binop";
  case StepKind::Div:
    return "div";
  case StepKind::Accumulate:
    return "accum";
  case StepKind::CallStatic:
    return "call";
  case StepKind::CallVirtual:
    return "vcall";
  case StepKind::Loop:
    return "loop";
  case StepKind::Diamond:
    return "diamond";
  case StepKind::FieldTrip:
    return "field";
  }
  return "push";
}

void writeValues(const std::vector<ValueSrc> &Values, json::JsonWriter &W) {
  W.beginArray();
  for (const ValueSrc &V : Values) {
    W.beginObject();
    if (V.FromArg) {
      W.key("arg");
      W.value(V.Slot);
    } else {
      W.key("const");
      W.value(static_cast<int64_t>(V.Const));
    }
    W.endObject();
  }
  W.endArray();
}

void writeIntArray(const std::vector<int32_t> &Values, json::JsonWriter &W) {
  W.beginArray();
  for (int32_t V : Values)
    W.value(static_cast<int64_t>(V));
  W.endArray();
}

} // namespace

void fuzz::writeSpec(const ProgramSpec &Spec, json::JsonWriter &W) {
  W.beginObject();
  W.key("impls");
  W.beginArray();
  for (const ImplSpec &Impl : Spec.Impls) {
    W.beginObject();
    W.key("op");
    W.value(implOpName(Impl.Op));
    W.key("operand");
    W.value(static_cast<int64_t>(Impl.Operand));
    W.key("work");
    W.value(static_cast<int64_t>(Impl.WorkCycles));
    W.endObject();
  }
  W.endArray();

  W.key("methods");
  W.beginArray();
  for (const MethodSpec &M : Spec.Methods) {
    W.beginObject();
    W.key("args");
    W.value(M.NumArgs);
    W.key("steps");
    W.beginArray();
    for (const StepSpec &S : M.Steps) {
      W.beginObject();
      W.key("kind");
      W.value(stepKindName(S.Kind));
      if (S.A != 0) {
        W.key("a");
        W.value(static_cast<int64_t>(S.A));
      }
      if (S.B != 0) {
        W.key("b");
        W.value(static_cast<int64_t>(S.B));
      }
      if (S.Kind == StepKind::CallStatic) {
        W.key("callee");
        W.value(S.Callee);
      }
      if (S.Kind == StepKind::CallVirtual) {
        W.key("impl");
        W.value(S.ImplIndex);
      }
      if (!S.Values.empty()) {
        W.key("values");
        writeValues(S.Values, W);
      }
      W.endObject();
    }
    W.endArray();
    W.endObject();
  }
  W.endArray();

  auto WriteCalls = [&](const char *Key, const std::vector<CallSpec> &Calls) {
    W.key(Key);
    W.beginArray();
    for (const CallSpec &Call : Calls) {
      W.beginObject();
      W.key("callee");
      W.value(Call.Callee);
      W.key("args");
      writeIntArray(Call.Args, W);
      W.key("repeat");
      W.value(Call.Repeat);
      W.endObject();
    }
    W.endArray();
  };
  WriteCalls("mainCalls", Spec.MainCalls);
  WriteCalls("workers", Spec.Workers);
  W.endObject();
}

namespace {

/// Member's numeric value as int64, or Default when absent.
int64_t intOr(const json::JsonValue &Obj, const char *Name, int64_t Default) {
  const json::JsonValue *V = Obj.find(Name);
  return V && V->isNumber() ? static_cast<int64_t>(V->NumVal) : Default;
}

bool parseValues(const json::JsonValue &Arr, std::vector<ValueSrc> &Out,
                 std::string &Error) {
  if (!Arr.isArray()) {
    Error = "values is not an array";
    return false;
  }
  for (const json::JsonValue &V : Arr.Elements) {
    if (!V.isObject()) {
      Error = "value entry is not an object";
      return false;
    }
    ValueSrc Src;
    if (const json::JsonValue *Arg = V.find("arg")) {
      Src.FromArg = true;
      Src.Slot = static_cast<uint32_t>(Arg->NumVal);
    } else if (const json::JsonValue *C = V.find("const")) {
      Src.Const = static_cast<int32_t>(C->NumVal);
    } else {
      Error = "value entry has neither 'arg' nor 'const'";
      return false;
    }
    Out.push_back(Src);
  }
  return true;
}

bool parseIntArray(const json::JsonValue &Arr, std::vector<int32_t> &Out,
                   std::string &Error) {
  if (!Arr.isArray()) {
    Error = "args is not an array";
    return false;
  }
  for (const json::JsonValue &V : Arr.Elements) {
    if (!V.isNumber()) {
      Error = "argument is not a number";
      return false;
    }
    Out.push_back(static_cast<int32_t>(V.NumVal));
  }
  return true;
}

} // namespace

ProgramSpec fuzz::parseSpec(const json::JsonValue &V, std::string &Error) {
  ProgramSpec Spec;
  Error.clear();
  if (!V.isObject()) {
    Error = "spec is not an object";
    return {};
  }

  const json::JsonValue *Impls = V.find("impls");
  if (!Impls || !Impls->isArray()) {
    Error = "spec has no impls array";
    return {};
  }
  for (const json::JsonValue &I : Impls->Elements) {
    ImplSpec Impl;
    const json::JsonValue *Op = I.find("op");
    std::string Name = Op && Op->isString() ? Op->Str : "add";
    Impl.Op = Name == "mul"   ? ImplOp::Mul
              : Name == "xor" ? ImplOp::Xor
                              : ImplOp::Add;
    Impl.Operand = static_cast<int32_t>(intOr(I, "operand", 1));
    Impl.WorkCycles = static_cast<int32_t>(intOr(I, "work", 0));
    Spec.Impls.push_back(Impl);
  }

  const json::JsonValue *Methods = V.find("methods");
  if (!Methods || !Methods->isArray()) {
    Error = "spec has no methods array";
    return {};
  }
  for (const json::JsonValue &M : Methods->Elements) {
    MethodSpec MS;
    MS.NumArgs = static_cast<uint32_t>(intOr(M, "args", 0));
    const json::JsonValue *Steps = M.find("steps");
    if (!Steps || !Steps->isArray()) {
      Error = "method has no steps array";
      return {};
    }
    for (const json::JsonValue &S : Steps->Elements) {
      StepSpec Step;
      const json::JsonValue *Kind = S.find("kind");
      std::string Name = Kind && Kind->isString() ? Kind->Str : "";
      if (Name == "push")
        Step.Kind = StepKind::Push;
      else if (Name == "binop")
        Step.Kind = StepKind::BinOp;
      else if (Name == "div")
        Step.Kind = StepKind::Div;
      else if (Name == "accum")
        Step.Kind = StepKind::Accumulate;
      else if (Name == "call")
        Step.Kind = StepKind::CallStatic;
      else if (Name == "vcall")
        Step.Kind = StepKind::CallVirtual;
      else if (Name == "loop")
        Step.Kind = StepKind::Loop;
      else if (Name == "diamond")
        Step.Kind = StepKind::Diamond;
      else if (Name == "field")
        Step.Kind = StepKind::FieldTrip;
      else {
        Error = "unknown step kind '" + Name + "'";
        return {};
      }
      Step.A = static_cast<int32_t>(intOr(S, "a", 0));
      Step.B = static_cast<int32_t>(intOr(S, "b", 0));
      Step.Callee = static_cast<uint32_t>(intOr(S, "callee", 0));
      Step.ImplIndex = static_cast<uint32_t>(intOr(S, "impl", 0));
      if (const json::JsonValue *Values = S.find("values"))
        if (!parseValues(*Values, Step.Values, Error))
          return {};
      MS.Steps.push_back(std::move(Step));
    }
    Spec.Methods.push_back(std::move(MS));
  }

  auto ParseCalls = [&](const char *Key, std::vector<CallSpec> &Out) -> bool {
    const json::JsonValue *Calls = V.find(Key);
    if (!Calls)
      return true; // optional
    if (!Calls->isArray()) {
      Error = std::string(Key) + " is not an array";
      return false;
    }
    for (const json::JsonValue &C : Calls->Elements) {
      CallSpec Call;
      Call.Callee = static_cast<uint32_t>(intOr(C, "callee", 0));
      Call.Repeat = static_cast<uint32_t>(intOr(C, "repeat", 1));
      if (const json::JsonValue *Args = C.find("args"))
        if (!parseIntArray(*Args, Call.Args, Error))
          return false;
      Out.push_back(std::move(Call));
    }
    return true;
  };
  if (!ParseCalls("mainCalls", Spec.MainCalls))
    return {};
  if (!ParseCalls("workers", Spec.Workers))
    return {};

  if (std::string Problem = validateSpec(Spec); !Problem.empty()) {
    Error = "invalid spec: " + Problem;
    return {};
  }
  return Spec;
}
