//===- bytecode/Builder.cpp - Program construction API --------------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//

#include "bytecode/Builder.h"

#include "support/ErrorHandling.h"

#include <cassert>

using namespace cbs;
using namespace cbs::bc;

//===----------------------------------------------------------------------===//
// MethodBuilder
//===----------------------------------------------------------------------===//

MethodBuilder &MethodBuilder::emit(Opcode Op, int32_t A, int32_t B) {
  assert(!Finished && "builder already finished");
  Code.emplace_back(Op, A, B);
  return *this;
}

MethodBuilder &MethodBuilder::emitBranch(Opcode Op, Label L) {
  assert(L.Index < LabelPCs.size() && "label from another builder");
  Fixups.emplace_back(static_cast<uint32_t>(Code.size()), L.Index);
  return emit(Op, /*A=*/-1);
}

MethodBuilder &MethodBuilder::iconst(int64_t V) {
  assert(V >= INT32_MIN && V <= INT32_MAX &&
         "iconst immediate limited to 32 bits");
  return emit(Opcode::IConst, static_cast<int32_t>(V));
}

MethodBuilder &MethodBuilder::iload(uint32_t Slot) {
  MaxSlot = std::max(MaxSlot, Slot);
  return emit(Opcode::ILoad, static_cast<int32_t>(Slot));
}

MethodBuilder &MethodBuilder::istore(uint32_t Slot) {
  MaxSlot = std::max(MaxSlot, Slot);
  return emit(Opcode::IStore, static_cast<int32_t>(Slot));
}

MethodBuilder &MethodBuilder::iinc(uint32_t Slot, int32_t Delta) {
  MaxSlot = std::max(MaxSlot, Slot);
  return emit(Opcode::IInc, static_cast<int32_t>(Slot), Delta);
}

MethodBuilder &MethodBuilder::iadd() { return emit(Opcode::IAdd); }
MethodBuilder &MethodBuilder::isub() { return emit(Opcode::ISub); }
MethodBuilder &MethodBuilder::imul() { return emit(Opcode::IMul); }
MethodBuilder &MethodBuilder::idiv() { return emit(Opcode::IDiv); }
MethodBuilder &MethodBuilder::irem() { return emit(Opcode::IRem); }
MethodBuilder &MethodBuilder::ineg() { return emit(Opcode::INeg); }
MethodBuilder &MethodBuilder::iand() { return emit(Opcode::IAnd); }
MethodBuilder &MethodBuilder::ior() { return emit(Opcode::IOr); }
MethodBuilder &MethodBuilder::ixor() { return emit(Opcode::IXor); }
MethodBuilder &MethodBuilder::ishl() { return emit(Opcode::IShl); }
MethodBuilder &MethodBuilder::ishr() { return emit(Opcode::IShr); }

Label MethodBuilder::newLabel() {
  LabelPCs.push_back(~0u);
  return {static_cast<uint32_t>(LabelPCs.size() - 1)};
}

MethodBuilder &MethodBuilder::bind(Label L) {
  assert(L.Index < LabelPCs.size() && "label from another builder");
  assert(LabelPCs[L.Index] == ~0u && "label bound twice");
  LabelPCs[L.Index] = static_cast<uint32_t>(Code.size());
  return *this;
}

MethodBuilder &MethodBuilder::jump(Label L) {
  return emitBranch(Opcode::Goto, L);
}
MethodBuilder &MethodBuilder::ifEq(Label L) {
  return emitBranch(Opcode::IfEq, L);
}
MethodBuilder &MethodBuilder::ifNe(Label L) {
  return emitBranch(Opcode::IfNe, L);
}
MethodBuilder &MethodBuilder::ifLt(Label L) {
  return emitBranch(Opcode::IfLt, L);
}
MethodBuilder &MethodBuilder::ifLe(Label L) {
  return emitBranch(Opcode::IfLe, L);
}
MethodBuilder &MethodBuilder::ifGt(Label L) {
  return emitBranch(Opcode::IfGt, L);
}
MethodBuilder &MethodBuilder::ifGe(Label L) {
  return emitBranch(Opcode::IfGe, L);
}
MethodBuilder &MethodBuilder::ifICmpEq(Label L) {
  return emitBranch(Opcode::IfICmpEq, L);
}
MethodBuilder &MethodBuilder::ifICmpNe(Label L) {
  return emitBranch(Opcode::IfICmpNe, L);
}
MethodBuilder &MethodBuilder::ifICmpLt(Label L) {
  return emitBranch(Opcode::IfICmpLt, L);
}
MethodBuilder &MethodBuilder::ifICmpGe(Label L) {
  return emitBranch(Opcode::IfICmpGe, L);
}

MethodBuilder &MethodBuilder::newObject(ClassId Class) {
  return emit(Opcode::New, static_cast<int32_t>(Class));
}
MethodBuilder &MethodBuilder::getField(uint32_t Index) {
  return emit(Opcode::GetField, static_cast<int32_t>(Index));
}
MethodBuilder &MethodBuilder::putField(uint32_t Index) {
  return emit(Opcode::PutField, static_cast<int32_t>(Index));
}
MethodBuilder &MethodBuilder::aload(uint32_t Slot) {
  MaxSlot = std::max(MaxSlot, Slot);
  return emit(Opcode::ALoad, static_cast<int32_t>(Slot));
}
MethodBuilder &MethodBuilder::astore(uint32_t Slot) {
  MaxSlot = std::max(MaxSlot, Slot);
  return emit(Opcode::AStore, static_cast<int32_t>(Slot));
}
MethodBuilder &MethodBuilder::aconstNull() { return emit(Opcode::AConstNull); }
MethodBuilder &MethodBuilder::classEq(ClassId Class) {
  return emit(Opcode::ClassEq, static_cast<int32_t>(Class));
}

MethodBuilder &MethodBuilder::invokeStatic(MethodId Callee) {
  const Method &M = PB.methodInfo(Callee);
  assert(!M.isVirtual() && "invokeStatic on a virtual method");
  SiteId Site = PB.allocateSite(Id, static_cast<uint32_t>(Code.size()));
  Code.emplace_back(Opcode::InvokeStatic, static_cast<int32_t>(Callee),
                    static_cast<int32_t>(M.numArgs()), Site);
  return *this;
}

MethodBuilder &MethodBuilder::invokeVirtual(SelectorId Selector) {
  uint32_t NumArgs = PB.hierarchy().selectorNumArgs(Selector);
  SiteId Site = PB.allocateSite(Id, static_cast<uint32_t>(Code.size()));
  Code.emplace_back(Opcode::InvokeVirtual, static_cast<int32_t>(Selector),
                    static_cast<int32_t>(NumArgs), Site);
  return *this;
}

MethodBuilder &MethodBuilder::ret() { return emit(Opcode::Return); }
MethodBuilder &MethodBuilder::iret() { return emit(Opcode::IReturn); }
MethodBuilder &MethodBuilder::aret() { return emit(Opcode::AReturn); }

MethodBuilder &MethodBuilder::work(int32_t Cycles) {
  assert(Cycles >= 1 && "work must model at least one cycle");
  return emit(Opcode::Work, Cycles);
}

MethodBuilder &MethodBuilder::print() { return emit(Opcode::Print); }
MethodBuilder &MethodBuilder::halt() { return emit(Opcode::Halt); }
MethodBuilder &MethodBuilder::nop() { return emit(Opcode::Nop); }

MethodBuilder &MethodBuilder::spawn(MethodId Target) {
  return emit(Opcode::Spawn, static_cast<int32_t>(Target));
}

uint32_t MethodBuilder::nextPC() const {
  return static_cast<uint32_t>(Code.size());
}

void MethodBuilder::finish() {
  assert(!Finished && "finish called twice");
  Finished = true;

  const Method &M = PB.methodInfo(Id);
  // Convenience: let void methods omit the trailing return. Also needed
  // when a used label is bound at the very end of the body ("jump to
  // exit") — the label must land on a real instruction.
  bool LabelBoundAtEnd = false;
  for (uint32_t PC : LabelPCs)
    LabelBoundAtEnd |= PC == Code.size();
  if (!M.HasResult &&
      (Code.empty() || LabelBoundAtEnd ||
       fallsThrough(Code.back().Op)))
    Code.emplace_back(Opcode::Return);

  for (auto [InstIndex, LabelIndex] : Fixups) {
    uint32_t Target = LabelPCs[LabelIndex];
    assert(Target != ~0u && "branch to an unbound label");
    assert(Target <= Code.size() && "label bound past end of code");
    // A label bound at the very end must still land on an instruction;
    // the auto-appended return covers the common "jump to exit" case.
    assert(Target < Code.size() && "label bound past the last instruction");
    Code[InstIndex].A = static_cast<int32_t>(Target);
  }

  uint32_t NumLocals =
      std::max<uint32_t>(MaxSlot + 1, std::max(1u, M.numArgs()));
  PB.installBody(Id, std::move(Code), NumLocals);
}

//===----------------------------------------------------------------------===//
// ProgramBuilder
//===----------------------------------------------------------------------===//

ProgramBuilder::ProgramBuilder() = default;

ClassId ProgramBuilder::addClass(std::string Name, ClassId Super,
                                 uint32_t NumOwnFields) {
  return Hierarchy.addClass(std::move(Name), Super, NumOwnFields);
}

SelectorId ProgramBuilder::addSelector(std::string Name, uint32_t NumArgs) {
  return Hierarchy.addSelector(std::move(Name), NumArgs);
}

MethodId ProgramBuilder::declareStatic(std::string Name,
                                       std::vector<ValKind> ArgKinds,
                                       bool HasResult, ValKind ResultKind) {
  Method M;
  M.Id = static_cast<MethodId>(Methods.size());
  M.Name = std::move(Name);
  M.ArgKinds = std::move(ArgKinds);
  M.HasResult = HasResult;
  M.ResultKind = ResultKind;
  Methods.push_back(std::move(M));
  Defined.push_back(false);
  return Methods.back().Id;
}

MethodId ProgramBuilder::declareVirtual(ClassId Class, SelectorId Selector,
                                        std::string Name,
                                        std::vector<ValKind> ExtraKinds,
                                        bool HasResult, ValKind ResultKind) {
  uint32_t NumArgs = Hierarchy.selectorNumArgs(Selector);
  if (ExtraKinds.empty())
    ExtraKinds.assign(NumArgs - 1, ValKind::Int);
  assert(ExtraKinds.size() == NumArgs - 1 &&
         "signature does not match the selector's arity");

  Method M;
  M.Id = static_cast<MethodId>(Methods.size());
  M.Name = Name.empty() ? Hierarchy.selectorName(Selector) : std::move(Name);
  M.Owner = Class;
  M.Selector = Selector;
  M.ArgKinds.push_back(ValKind::Ref); // Receiver.
  M.ArgKinds.insert(M.ArgKinds.end(), ExtraKinds.begin(), ExtraKinds.end());
  M.HasResult = HasResult;
  M.ResultKind = ResultKind;
  Methods.push_back(std::move(M));
  Defined.push_back(false);

  Hierarchy.setImplementation(Class, Selector, Methods.back().Id);
  return Methods.back().Id;
}

MethodBuilder ProgramBuilder::defineMethod(MethodId Id) {
  assert(Id < Methods.size() && "unknown method");
  assert(!Defined[Id] && "method defined twice");
  return MethodBuilder(*this, Id);
}

const Method &ProgramBuilder::methodInfo(MethodId Id) const {
  assert(Id < Methods.size() && "unknown method");
  return Methods[Id];
}

SiteId ProgramBuilder::allocateSite(MethodId Caller, uint32_t PC) {
  Sites.push_back({Caller, PC});
  return static_cast<SiteId>(Sites.size() - 1);
}

void ProgramBuilder::installBody(MethodId Id, std::vector<Instruction> Code,
                                 uint32_t NumLocals) {
  Methods[Id].Code = std::move(Code);
  Methods[Id].NumLocals = NumLocals;
  Defined[Id] = true;
}

Program ProgramBuilder::finish(MethodId Entry) {
  assert(Entry < Methods.size() && "unknown entry method");
  for (size_t I = 0, E = Methods.size(); I != E; ++I)
    if (!Defined[I])
      reportFatalError("method '" + Methods[I].Name +
                       "' declared but never defined");

  Hierarchy.resolve();

  Program P;
  P.Hierarchy = std::move(Hierarchy);
  P.Methods = std::move(Methods);
  P.Sites = std::move(Sites);
  P.Entry = Entry;
  return P;
}
