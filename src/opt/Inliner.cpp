//===- opt/Inliner.cpp - Bytecode inlining transformation -------------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//

#include "opt/Inliner.h"

#include "support/ErrorHandling.h"

#include <algorithm>
#include <cassert>

using namespace cbs;
using namespace cbs::bc;
using namespace cbs::opt;

namespace {

class InlineEmitter {
public:
  InlineEmitter(const Program &P, const InlinePlan &Plan,
                const InlinerOptions &Options)
      : P(P), Plan(Plan), Options(Options) {}

  InlineResult run(MethodId Root) {
    const Method &M = P.method(Root);
    NumLocals = M.NumLocals;
    InlineStack.push_back(Root);
    emitBody(M, /*ArgBase=*/0, /*ExtraBase=*/M.numArgs(), /*Depth=*/0);
    InlineStack.pop_back();

    InlineResult Result;
    Result.Code = std::move(NewCode);
    Result.NumLocals = NumLocals;
    Result.InlinedBodies = InlinedBodies;
    Result.BudgetSkips = BudgetSkips;
    Result.Speculations = std::move(Speculations);
    Result.RootMap = std::move(RootMap);
    return Result;
  }

private:
  bool onInlineStack(MethodId Id) const {
    return std::find(InlineStack.begin(), InlineStack.end(), Id) !=
           InlineStack.end();
  }

  bool overBudget(size_t CalleeInstructions) const {
    return NewCode.size() + CalleeInstructions + 8 >
           Options.MaxResultInstructions;
  }

  /// Spills a call's arguments from the operand stack into locals
  /// [ArgBase, ArgBase + NumArgs), top of stack last.
  void spillArgs(const std::vector<ValKind> &Kinds, uint32_t ArgBase) {
    for (size_t K = Kinds.size(); K-- > 0;)
      NewCode.emplace_back(Kinds[K] == ValKind::Ref ? Opcode::AStore
                                                    : Opcode::IStore,
                           static_cast<int32_t>(ArgBase + K));
  }

  /// Reloads spilled arguments back onto the operand stack in call
  /// order (for the guarded-inline fallback path).
  void reloadArgs(const std::vector<ValKind> &Kinds, uint32_t ArgBase) {
    for (size_t K = 0, E = Kinds.size(); K != E; ++K)
      NewCode.emplace_back(Kinds[K] == ValKind::Ref ? Opcode::ALoad
                                                    : Opcode::ILoad,
                           static_cast<int32_t>(ArgBase + K));
  }

  void expandDirect(const Method &Callee, uint32_t Depth) {
    uint32_t NumArgs = Callee.numArgs();
    uint32_t ArgBase = NumLocals;
    NumLocals += NumArgs;
    uint32_t ExtraBase = NumLocals;
    NumLocals += Callee.NumLocals - NumArgs;

    spillArgs(Callee.ArgKinds, ArgBase);
    ++InlinedBodies;
    InlineStack.push_back(Callee.Id);
    emitBody(Callee, ArgBase, ExtraBase, Depth + 1);
    InlineStack.pop_back();
  }

  void expandGuarded(const Instruction &Call,
                     const std::vector<const Method *> &Targets,
                     const std::vector<std::vector<ClassId>> &Guards,
                     uint32_t Depth) {
    assert(!Targets.empty() && "guarded expansion with no targets");
    const std::vector<ValKind> &Kinds = Targets.front()->ArgKinds;
    uint32_t NumArgs = static_cast<uint32_t>(Kinds.size());
    uint32_t ArgBase = NumLocals;
    NumLocals += NumArgs;

    spillArgs(Kinds, ArgBase);

    // Guard tests: exact-class checks on the receiver, one ifne per
    // guard class, jumping to the matching inlined body.
    std::vector<std::vector<size_t>> GuardJumps(Targets.size());
    for (size_t T = 0, E = Targets.size(); T != E; ++T)
      for (ClassId C : Guards[T]) {
        NewCode.emplace_back(Opcode::ALoad, static_cast<int32_t>(ArgBase));
        NewCode.emplace_back(Opcode::ClassEq, static_cast<int32_t>(C));
        GuardJumps[T].push_back(NewCode.size());
        NewCode.emplace_back(Opcode::IfNe, /*A=*/-1);
      }

    // Fallback: the original virtual call, site id preserved.
    std::vector<size_t> DoneJumps;
    reloadArgs(Kinds, ArgBase);
    NewCode.push_back(Call);
    DoneJumps.push_back(NewCode.size());
    NewCode.emplace_back(Opcode::Goto, /*A=*/-1);

    // Inlined bodies.
    for (size_t T = 0, E = Targets.size(); T != E; ++T) {
      uint32_t BodyStart = static_cast<uint32_t>(NewCode.size());
      for (size_t Jump : GuardJumps[T])
        NewCode[Jump].A = static_cast<int32_t>(BodyStart);

      const Method &Callee = *Targets[T];
      uint32_t ExtraBase = NumLocals;
      NumLocals += Callee.NumLocals - NumArgs;
      ++InlinedBodies;
      InlineStack.push_back(Callee.Id);
      emitBody(Callee, ArgBase, ExtraBase, Depth + 1);
      InlineStack.pop_back();

      DoneJumps.push_back(NewCode.size());
      NewCode.emplace_back(Opcode::Goto, /*A=*/-1);
    }

    uint32_t Done = static_cast<uint32_t>(NewCode.size());
    for (size_t Jump : DoneJumps)
      NewCode[Jump].A = static_cast<int32_t>(Done);
  }

  /// Emits a call instruction, expanding it per the plan when allowed.
  void emitCall(const Instruction &I, uint32_t Depth) {
    const InlineDecision *D =
        Depth < Options.MaxDepth ? Plan.decisionFor(I.Site) : nullptr;
    if (!D || D->K == InlineDecision::Kind::None) {
      NewCode.push_back(I);
      return;
    }

    if (D->K == InlineDecision::Kind::Direct) {
      const Method &Callee = P.method(D->Target);
      if (onInlineStack(Callee.Id) || overBudget(Callee.Code.size())) {
        ++BudgetSkips;
        NewCode.push_back(I);
        return;
      }
      expandDirect(Callee, Depth);
      return;
    }

    // Guarded: only meaningful on virtual calls.
    if (I.Op != Opcode::InvokeVirtual) {
      NewCode.push_back(I);
      return;
    }
    // Skip a guarded target whose receiver set needs more tests than
    // this (guards would cost more than the dispatch).
    constexpr size_t MaxGuardClassesPerTarget = 2;
    std::vector<const Method *> Targets;
    std::vector<std::vector<ClassId>> Guards;
    size_t TotalSize = 0;
    for (const GuardedTarget &GT : D->Guarded) {
      if (GT.GuardClasses.empty() ||
          GT.GuardClasses.size() > MaxGuardClassesPerTarget)
        continue;
      const Method &Callee = P.method(GT.Target);
      if (onInlineStack(Callee.Id))
        continue;
      Targets.push_back(&Callee);
      Guards.push_back(GT.GuardClasses);
      TotalSize += Callee.Code.size();
    }
    if (Targets.empty() || overBudget(TotalSize + 4 * Targets.size())) {
      if (!Targets.empty())
        ++BudgetSkips;
      NewCode.push_back(I);
      return;
    }
    // The expansion speculates that the highest-priority target stays
    // dominant at this site; record the assumption for guard policing.
    Speculations.push_back({I.Site, Targets.front()->Id});
    expandGuarded(I, Targets, Guards, Depth);
  }

  /// Emits \p M's code with local slot s mapped to ArgBase + s for
  /// arguments and ExtraBase + (s - numArgs) for the rest. At Depth 0
  /// returns are kept; deeper, they become jumps past the body (any
  /// return value is already on the operand stack).
  void emitBody(const Method &M, uint32_t ArgBase, uint32_t ExtraBase,
                uint32_t Depth) {
    uint32_t NumArgs = M.numArgs();
    auto mapSlot = [&](int32_t S) {
      return static_cast<int32_t>(static_cast<uint32_t>(S) <
                                          NumArgs
                                      ? ArgBase + static_cast<uint32_t>(S)
                                      : ExtraBase +
                                            (static_cast<uint32_t>(S) -
                                             NumArgs));
    };

    std::vector<uint32_t> Map(M.Code.size());
    std::vector<std::pair<size_t, uint32_t>> BranchFixups;
    std::vector<size_t> ReturnFixups;

    for (uint32_t PC = 0, E = static_cast<uint32_t>(M.Code.size()); PC != E;
         ++PC) {
      Map[PC] = static_cast<uint32_t>(NewCode.size());
      const Instruction &I = M.Code[PC];
      if (isReturn(I.Op)) {
        if (Depth == 0) {
          NewCode.push_back(I);
        } else {
          ReturnFixups.push_back(NewCode.size());
          NewCode.emplace_back(Opcode::Goto, /*A=*/-1);
        }
        continue;
      }
      if (isCall(I.Op)) {
        emitCall(I, Depth);
        continue;
      }
      switch (operandKind(I.Op)) {
      case OperandKind::Slot:
        NewCode.emplace_back(I.Op, mapSlot(I.A));
        break;
      case OperandKind::SlotImm:
        NewCode.emplace_back(I.Op, mapSlot(I.A), I.B);
        break;
      case OperandKind::Target:
        BranchFixups.emplace_back(NewCode.size(),
                                  static_cast<uint32_t>(I.A));
        NewCode.push_back(I);
        break;
      default:
        NewCode.push_back(I);
        break;
      }
    }

    uint32_t End = static_cast<uint32_t>(NewCode.size());
    for (size_t Idx : ReturnFixups)
      NewCode[Idx].A = static_cast<int32_t>(End);
    for (auto [Idx, OldTarget] : BranchFixups)
      NewCode[Idx].A = static_cast<int32_t>(Map[OldTarget]);

    // The root body's orig->rewritten map is the OSR-point source: the
    // compiler projects the root's loop headers through it.
    if (Depth == 0)
      RootMap = std::move(Map);
  }

  const Program &P;
  const InlinePlan &Plan;
  const InlinerOptions &Options;

  std::vector<Instruction> NewCode;
  uint32_t NumLocals = 0;
  std::vector<MethodId> InlineStack;
  uint32_t InlinedBodies = 0;
  uint32_t BudgetSkips = 0;
  std::vector<vm::SpeculationGuard> Speculations;
  std::vector<uint32_t> RootMap;
};

} // namespace

InlineResult opt::inlineMethod(const Program &P, MethodId Root,
                               const InlinePlan &Plan,
                               const InlinerOptions &Options) {
  return InlineEmitter(P, Plan, Options).run(Root);
}
