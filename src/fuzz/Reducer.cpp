//===- fuzz/Reducer.cpp - Delta-debugging program reducer ------------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Reducer.h"

#include <optional>

using namespace cbs;
using namespace cbs::fuzz;

namespace {

/// Runs one oracle check against the built candidate; empty = passes.
class CheckedReducer {
public:
  CheckedReducer(const Oracle &O, uint64_t Seed, const ReduceOptions &Options)
      : O(O), Seed(Seed), Options(Options) {}

  bool budgetLeft() const { return Result.ChecksUsed < Options.MaxChecks; }

  /// Returns the violation message if \p Candidate still fails (and
  /// charges one check), nullopt otherwise.
  std::optional<std::string> stillFails(const ProgramSpec &Candidate) {
    if (!budgetLeft() || !validateSpec(Candidate).empty())
      return std::nullopt;
    ++Result.ChecksUsed;
    bc::Program P = buildProgram(Candidate);
    ProgramRuns Runs(P, Seed);
    std::string Message = O.check({P, Seed, Runs});
    Result.VmRuns += Runs.vmRuns();
    if (Message.empty())
      return std::nullopt;
    return Message;
  }

  /// Accepts \p Candidate if it still fails; returns true on accept.
  bool tryAccept(ProgramSpec &Current, ProgramSpec Candidate) {
    std::optional<std::string> Message = stillFails(Candidate);
    if (!Message)
      return false;
    Current = std::move(Candidate);
    Result.Message = std::move(*Message);
    ++Result.Accepted;
    return true;
  }

  ReduceResult Result;

private:
  const Oracle &O;
  uint64_t Seed;
  const ReduceOptions &Options;
};

/// Removes method \p Victim: every CallStatic targeting it is unrolled
/// into a constant push (value 0 — the oracle decides whether that
/// still fails), and every callee index above it shifts down by one.
ProgramSpec dropMethod(const ProgramSpec &Spec, uint32_t Victim) {
  ProgramSpec Out = Spec;
  Out.Methods.erase(Out.Methods.begin() + Victim);
  auto Remap = [&](uint32_t Callee) { return Callee > Victim ? Callee - 1 : Callee; };
  for (MethodSpec &M : Out.Methods)
    for (StepSpec &S : M.Steps) {
      if (S.Kind != StepKind::CallStatic)
        continue;
      if (S.Callee == Victim) {
        S.Kind = StepKind::Push;
        S.A = S.B = 0;
        ValueSrc Zero;
        S.Values.assign(1, Zero);
      } else {
        S.Callee = Remap(S.Callee);
      }
    }
  // Main calls and workers targeting the victim are dropped outright
  // (unrolling them to a constant would change what main prints — let
  // the oracle veto if the print mattered).
  for (std::vector<CallSpec> *Calls : {&Out.MainCalls, &Out.Workers}) {
    std::vector<CallSpec> Kept;
    for (const CallSpec &C : *Calls)
      if (C.Callee != Victim) {
        Kept.push_back(C);
        Kept.back().Callee = Remap(C.Callee);
      }
    *Calls = std::move(Kept);
  }
  return Out;
}

/// Removes impl \p Victim (callers guarantee at least one remains) and
/// remaps CallVirtual references.
ProgramSpec dropImpl(const ProgramSpec &Spec, uint32_t Victim) {
  ProgramSpec Out = Spec;
  Out.Impls.erase(Out.Impls.begin() + Victim);
  for (MethodSpec &M : Out.Methods)
    for (StepSpec &S : M.Steps)
      if (S.Kind == StepKind::CallVirtual) {
        if (S.ImplIndex == Victim)
          S.ImplIndex = 0;
        else if (S.ImplIndex > Victim)
          --S.ImplIndex;
      }
  return Out;
}

} // namespace

ReduceResult fuzz::reduceSpec(const ProgramSpec &Spec, const Oracle &O,
                              uint64_t Seed, std::string Message,
                              const ReduceOptions &Options) {
  CheckedReducer R(O, Seed, Options);
  R.Result.Spec = Spec;
  R.Result.Message = std::move(Message);

  ProgramSpec &Current = R.Result.Spec;
  bool Changed = true;
  while (Changed && R.budgetLeft()) {
    Changed = false;

    // Drop whole static methods, last first (later methods are the DAG
    // roots; removing one can orphan — and thus unlock — many below).
    for (uint32_t M = static_cast<uint32_t>(Current.Methods.size());
         M-- > 0 && R.budgetLeft();)
      if (Current.Methods.size() > 1 &&
          R.tryAccept(Current, dropMethod(Current, M)))
        Changed = true;

    // Drop individual main calls (keep at least one so the program
    // still exercises the profiled path — a printless program passes
    // every differential oracle vacuously and stalls reduction).
    for (uint32_t C = static_cast<uint32_t>(Current.MainCalls.size());
         C-- > 0 && R.budgetLeft();) {
      if (Current.MainCalls.size() <= 1)
        break;
      ProgramSpec Candidate = Current;
      Candidate.MainCalls.erase(Candidate.MainCalls.begin() + C);
      if (R.tryAccept(Current, std::move(Candidate)))
        Changed = true;
    }

    // Drop workers.
    for (uint32_t W = static_cast<uint32_t>(Current.Workers.size());
         W-- > 0 && R.budgetLeft();) {
      ProgramSpec Candidate = Current;
      Candidate.Workers.erase(Candidate.Workers.begin() + W);
      if (R.tryAccept(Current, std::move(Candidate)))
        Changed = true;
    }

    // Drop body steps.
    for (uint32_t M = 0; M != Current.Methods.size() && R.budgetLeft(); ++M)
      for (uint32_t S = static_cast<uint32_t>(Current.Methods[M].Steps.size());
           S-- > 0 && R.budgetLeft();) {
        ProgramSpec Candidate = Current;
        MethodSpec &MS = Candidate.Methods[M];
        MS.Steps.erase(MS.Steps.begin() + S);
        if (R.tryAccept(Current, std::move(Candidate)))
          Changed = true;
      }

    // Drop virtual implementations (keep one).
    for (uint32_t I = static_cast<uint32_t>(Current.Impls.size());
         I-- > 0 && R.budgetLeft();)
      if (Current.Impls.size() > 1 && R.tryAccept(Current, dropImpl(Current, I)))
        Changed = true;

    // Halve loop trips and repeat counts (only counts as progress when
    // something actually shrank).
    ProgramSpec Halved = Current;
    bool Shrank = false;
    for (MethodSpec &M : Halved.Methods)
      for (StepSpec &S : M.Steps)
        if (S.Kind == StepKind::Loop && S.A > 1) {
          S.A /= 2;
          Shrank = true;
        }
    for (std::vector<CallSpec> *Calls : {&Halved.MainCalls, &Halved.Workers})
      for (CallSpec &C : *Calls)
        if (C.Repeat > 1) {
          C.Repeat /= 2;
          Shrank = true;
        }
    if (Shrank && R.tryAccept(Current, std::move(Halved)))
      Changed = true;
  }

  return R.Result;
}
