//===- opt/Passes.cpp - Bytecode optimization passes ------------------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//

#include "opt/Passes.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <optional>

using namespace cbs;
using namespace cbs::bc;
using namespace cbs::opt;

std::vector<bool>
opt::computeBranchTargets(const std::vector<Instruction> &Code) {
  std::vector<bool> Targets(Code.size(), false);
  for (const Instruction &I : Code)
    if (isBranch(I.Op)) {
      assert(I.A >= 0 && static_cast<size_t>(I.A) < Code.size() &&
             "branch target out of range");
      Targets[I.A] = true;
    }
  return Targets;
}

namespace {

/// Does a call instruction push a result? (Selector result arity is
/// derived from any implementation; the verifier enforces consistency.)
class CallInfo {
public:
  explicit CallInfo(const Program &P) {
    SelectorPushes.assign(P.hierarchy().numSelectors(), false);
    for (size_t M = 0, E = P.numMethods(); M != E; ++M) {
      const Method &Meth = P.method(static_cast<MethodId>(M));
      if (Meth.isVirtual() && Meth.HasResult)
        SelectorPushes[Meth.Selector] = true;
    }
    Prog = &P;
  }

  bool pushesResult(const Instruction &I) const {
    if (I.Op == Opcode::InvokeStatic)
      return Prog->method(static_cast<MethodId>(I.A)).HasResult;
    return SelectorPushes[static_cast<SelectorId>(I.A)];
  }

private:
  const Program *Prog = nullptr;
  std::vector<bool> SelectorPushes;
};

} // namespace

bool opt::foldConstants(std::vector<Instruction> &Code) {
  std::vector<bool> Targets = computeBranchTargets(Code);
  bool Changed = false;

  for (size_t I = 0, E = Code.size(); I != E; ++I) {
    Opcode Op = Code[I].Op;

    // IConst a; IConst b; binop  ->  nop; nop; IConst(a op b)
    if (I >= 2 && isBinop(Op) && Code[I - 1].Op == Opcode::IConst &&
        Code[I - 2].Op == Opcode::IConst && !Targets[I] && !Targets[I - 1]) {
      int64_t L = Code[I - 2].A, R = Code[I - 1].A;
      if (trapsOnZero(Op) && R == 0)
        continue; // Preserve the trap.
      int64_t V = evalBinop(Op, L, R);
      if (V < INT32_MIN || V > INT32_MAX)
        continue; // IConst immediates are 32-bit.
      Code[I - 2] = Instruction(Opcode::Nop);
      Code[I - 1] = Instruction(Opcode::Nop);
      Code[I] = Instruction(Opcode::IConst, static_cast<int32_t>(V));
      Changed = true;
      continue;
    }

    // IConst c; ineg -> nop; IConst(-c)
    if (I >= 1 && Op == Opcode::INeg && Code[I - 1].Op == Opcode::IConst &&
        !Targets[I]) {
      int64_t V = evalNeg(Code[I - 1].A);
      if (V < INT32_MIN || V > INT32_MAX)
        continue;
      Code[I - 1] = Instruction(Opcode::Nop);
      Code[I] = Instruction(Opcode::IConst, static_cast<int32_t>(V));
      Changed = true;
      continue;
    }

    // IConst c; if<cond> -> nop; (goto | nop)
    if (I >= 1 && flowKind(Op) == FlowKind::UnaryCond &&
        Code[I - 1].Op == Opcode::IConst && !Targets[I]) {
      bool Taken = branchTaken(Op, Code[I - 1].A, 0);
      Code[I - 1] = Instruction(Opcode::Nop);
      Code[I] = Taken ? Instruction(Opcode::Goto, Code[I].A)
                      : Instruction(Opcode::Nop);
      Changed = true;
      continue;
    }

    // IConst a; IConst b; if_icmp<cond> -> nop; nop; (goto | nop)
    if (I >= 2 && flowKind(Op) == FlowKind::BinaryCond &&
        Code[I - 1].Op == Opcode::IConst && Code[I - 2].Op == Opcode::IConst &&
        !Targets[I] && !Targets[I - 1]) {
      bool Taken = branchTaken(Op, Code[I - 2].A, Code[I - 1].A);
      Code[I - 2] = Instruction(Opcode::Nop);
      Code[I - 1] = Instruction(Opcode::Nop);
      Code[I] = Taken ? Instruction(Opcode::Goto, Code[I].A)
                      : Instruction(Opcode::Nop);
      Changed = true;
      continue;
    }

    // Algebraic identities: IConst 0; iadd/isub  and  IConst 1; imul.
    if (I >= 1 && Code[I - 1].Op == Opcode::IConst && !Targets[I] &&
        ((Code[I - 1].A == 0 &&
          (Op == Opcode::IAdd || Op == Opcode::ISub || Op == Opcode::IOr ||
           Op == Opcode::IXor)) ||
         (Code[I - 1].A == 1 && Op == Opcode::IMul))) {
      Code[I - 1] = Instruction(Opcode::Nop);
      Code[I] = Instruction(Opcode::Nop);
      Changed = true;
      continue;
    }
  }
  return Changed;
}

bool opt::propagateLocalConstants(const Program &P,
                                  std::vector<Instruction> &Code) {
  CallInfo Calls(P);
  std::vector<bool> Targets = computeBranchTargets(Code);
  bool Changed = false;

  // Abstract state: known-constant locals, plus a *suffix* model of the
  // operand stack (only the values we have tracked since the last
  // unknown point). Both reset at block leaders.
  std::vector<std::optional<int64_t>> Locals;
  std::vector<std::optional<int64_t>> Stack;

  auto reset = [&] {
    Locals.assign(Locals.size(), std::nullopt);
    Stack.clear();
  };
  uint32_t MaxSlot = 0;
  for (const Instruction &I : Code)
    if (operandKind(I.Op) == OperandKind::Slot ||
        operandKind(I.Op) == OperandKind::SlotImm)
      MaxSlot = std::max(MaxSlot, static_cast<uint32_t>(I.A));
  Locals.assign(MaxSlot + 1, std::nullopt);

  auto pop = [&]() -> std::optional<int64_t> {
    if (Stack.empty())
      return std::nullopt;
    std::optional<int64_t> V = Stack.back();
    Stack.pop_back();
    return V;
  };
  auto popN = [&](unsigned N) {
    for (unsigned K = 0; K != N; ++K)
      pop();
  };

  for (size_t I = 0, E = Code.size(); I != E; ++I) {
    if (Targets[I])
      reset();
    Instruction &Ins = Code[I];
    if (isBinop(Ins.Op)) {
      std::optional<int64_t> R = pop(), L = pop();
      if (L && R && !(trapsOnZero(Ins.Op) && *R == 0))
        Stack.push_back(evalBinop(Ins.Op, *L, *R));
      else
        Stack.push_back(std::nullopt);
      continue;
    }
    switch (flowKind(Ins.Op)) {
    case FlowKind::Goto:
    case FlowKind::Return:
    case FlowKind::Halt:
      reset();
      continue;
    case FlowKind::UnaryCond:
      // The fall-through keeps the state: locals are unchanged on the
      // not-taken path, and the taken path re-enters at a leader where
      // the state resets anyway.
      pop();
      continue;
    case FlowKind::BinaryCond:
      popN(2);
      continue;
    case FlowKind::Call:
      popN(static_cast<unsigned>(Ins.B));
      if (Calls.pushesResult(Ins))
        Stack.push_back(std::nullopt);
      continue;
    case FlowKind::Next:
      break;
    }
    switch (Ins.Op) {
    case Opcode::IConst:
      Stack.push_back(static_cast<int64_t>(Ins.A));
      break;
    case Opcode::ILoad: {
      std::optional<int64_t> V = Locals[Ins.A];
      if (V && *V >= INT32_MIN && *V <= INT32_MAX) {
        Ins = Instruction(Opcode::IConst, static_cast<int32_t>(*V));
        Changed = true;
      }
      Stack.push_back(V);
      break;
    }
    case Opcode::IStore:
      Locals[Ins.A] = pop();
      break;
    case Opcode::IInc:
      if (Locals[Ins.A])
        Locals[Ins.A] = evalBinop(Opcode::IAdd, *Locals[Ins.A], Ins.B);
      break;
    case Opcode::ALoad:
    case Opcode::AConstNull:
    case Opcode::New:
      Stack.push_back(std::nullopt);
      break;
    case Opcode::AStore:
      pop();
      Locals[Ins.A] = std::nullopt;
      break;
    case Opcode::INeg: {
      std::optional<int64_t> V = pop();
      Stack.push_back(V ? std::optional<int64_t>(evalNeg(*V)) : std::nullopt);
      break;
    }
    case Opcode::GetField:
    case Opcode::ClassEq:
      pop();
      Stack.push_back(std::nullopt);
      break;
    case Opcode::PutField:
      popN(2);
      break;
    case Opcode::Print:
      pop();
      break;
    default: // nop, work, spawn: no operand-stack effect
      break;
    }
  }
  return Changed;
}

bool opt::simplifyBranches(std::vector<Instruction> &Code) {
  bool Changed = false;
  for (size_t I = 0, E = Code.size(); I != E; ++I) {
    Instruction &Ins = Code[I];
    if (!isBranch(Ins.Op))
      continue;
    // Collapse goto->goto chains (bounded; loops of gotos left alone).
    uint32_t Target = static_cast<uint32_t>(Ins.A);
    for (int Hop = 0; Hop < 8; ++Hop) {
      if (Target >= Code.size() || Code[Target].Op != Opcode::Goto ||
          Target == I)
        break;
      uint32_t Next = static_cast<uint32_t>(Code[Target].A);
      if (Next == Target)
        break;
      Target = Next;
    }
    if (Target != static_cast<uint32_t>(Ins.A)) {
      Ins.A = static_cast<int32_t>(Target);
      Changed = true;
    }
    // goto to the next instruction is a nop.
    if (Ins.Op == Opcode::Goto && static_cast<size_t>(Ins.A) == I + 1) {
      Ins = Instruction(Opcode::Nop);
      Changed = true;
    }
  }
  return Changed;
}

bool opt::removeUnreachable(std::vector<Instruction> &Code) {
  if (Code.empty())
    return false;
  std::vector<bool> Reached(Code.size(), false);
  std::deque<uint32_t> Worklist{0};
  while (!Worklist.empty()) {
    uint32_t PC = Worklist.front();
    Worklist.pop_front();
    if (PC >= Code.size() || Reached[PC])
      continue;
    Reached[PC] = true;
    const Instruction &I = Code[PC];
    if (isBranch(I.Op))
      Worklist.push_back(static_cast<uint32_t>(I.A));
    if (fallsThrough(I.Op))
      Worklist.push_back(PC + 1);
  }
  bool Changed = false;
  for (size_t I = 0, E = Code.size(); I != E; ++I)
    if (!Reached[I] && Code[I].Op != Opcode::Nop) {
      Code[I] = Instruction(Opcode::Nop);
      Changed = true;
    }
  return Changed;
}

bool opt::fuseWork(std::vector<Instruction> &Code) {
  std::vector<bool> Targets = computeBranchTargets(Code);
  bool Changed = false;
  for (size_t I = 1, E = Code.size(); I != E; ++I) {
    if (Code[I].Op != Opcode::Work || Code[I - 1].Op != Opcode::Work ||
        Targets[I])
      continue;
    int64_t Total = static_cast<int64_t>(Code[I].A) + Code[I - 1].A;
    if (Total > INT32_MAX)
      continue;
    Code[I - 1] = Instruction(Opcode::Nop);
    Code[I].A = static_cast<int32_t>(Total);
    Changed = true;
  }
  return Changed;
}

bool opt::removeDeadStores(std::vector<Instruction> &Code) {
  // Slots that are ever read (loads and iinc, which reads and writes).
  std::vector<bool> Read;
  auto markRead = [&Read](int32_t Slot) {
    if (static_cast<size_t>(Slot) >= Read.size())
      Read.resize(Slot + 1, false);
    Read[Slot] = true;
  };
  for (const Instruction &I : Code)
    if (I.Op == Opcode::ILoad || I.Op == Opcode::ALoad ||
        I.Op == Opcode::IInc)
      markRead(I.A);

  auto isPureProducer = [](Opcode Op) {
    return Op == Opcode::IConst || Op == Opcode::ILoad ||
           Op == Opcode::ALoad || Op == Opcode::AConstNull;
  };

  std::vector<bool> Targets = computeBranchTargets(Code);
  bool Changed = false;
  for (size_t I = 1, E = Code.size(); I != E; ++I) {
    Opcode Op = Code[I].Op;
    if (Op != Opcode::IStore && Op != Opcode::AStore)
      continue;
    if (static_cast<size_t>(Code[I].A) < Read.size() && Read[Code[I].A])
      continue;
    if (!isPureProducer(Code[I - 1].Op) || Targets[I])
      continue;
    Code[I - 1] = Instruction(Opcode::Nop);
    Code[I] = Instruction(Opcode::Nop);
    Changed = true;
  }
  return Changed;
}

bool opt::removeNops(std::vector<Instruction> &Code,
                     std::vector<uint32_t> *TrackedPCs) {
  size_t NumNops = 0;
  for (const Instruction &I : Code)
    if (I.Op == Opcode::Nop)
      ++NumNops;
  // Keep a trailing nop-free body; if everything is a nop something is
  // deeply wrong (a method must end in a return).
  if (NumNops == 0)
    return false;

  // NewIndex[i] = index of the first kept instruction at or after i.
  std::vector<uint32_t> NewIndex(Code.size() + 1, 0);
  std::vector<Instruction> Kept;
  Kept.reserve(Code.size() - NumNops);
  for (size_t I = 0, E = Code.size(); I != E; ++I) {
    NewIndex[I] = static_cast<uint32_t>(Kept.size());
    if (Code[I].Op != Opcode::Nop)
      Kept.push_back(Code[I]);
  }
  NewIndex[Code.size()] = static_cast<uint32_t>(Kept.size());

  for (Instruction &I : Kept)
    if (isBranch(I.Op)) {
      uint32_t Remapped = NewIndex[I.A];
      assert(Remapped < Kept.size() &&
             "branch target dissolved into trailing nops");
      I.A = static_cast<int32_t>(Remapped);
    }
  // Side tables ride along under the same first-kept-at-or-after rule
  // as branch targets (a tracked instruction that was nopped maps to
  // whatever executes in its place — for loop headers, the new header).
  if (TrackedPCs)
    for (uint32_t &PC : *TrackedPCs)
      PC = NewIndex[std::min<size_t>(PC, Code.size())];
  Code = std::move(Kept);
  return true;
}

OptimizerStats opt::optimizeCode(const Program &P,
                                 std::vector<Instruction> &Code, int Level,
                                 std::vector<uint32_t> *TrackedPCs) {
  assert(Level >= 0 && Level <= 2 && "optimization level out of range");
  OptimizerStats Stats;
  if (Level == 0)
    return Stats;

  unsigned MaxRounds = Level == 1 ? 2 : 4;
  for (unsigned Round = 0; Round != MaxRounds; ++Round) {
    bool Changed = false;
    Changed |= foldConstants(Code);
    Changed |= propagateLocalConstants(P, Code);
    Changed |= foldConstants(Code);
    Changed |= removeDeadStores(Code);
    Changed |= simplifyBranches(Code);
    Changed |= removeUnreachable(Code);
    Changed |= fuseWork(Code);
    Changed |= removeNops(Code, TrackedPCs);
    ++Stats.RoundsRun;
    Stats.AnyChange |= Changed;
    if (!Changed)
      break;
  }
  return Stats;
}
