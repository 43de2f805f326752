//===- tests/InlinerTest.cpp - bytecode inliner tests --------------------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
//
// The inliner is a real bytecode transformation; these tests check its
// mechanics (locals remapping, return splicing, guard layout, budget /
// depth / recursion limits) and, most importantly, *semantic
// equivalence*: a program compiled through any inline plan must produce
// the same Print output as the original.
//
//===----------------------------------------------------------------------===//

#include "bytecode/Builder.h"
#include "bytecode/Printer.h"
#include "bytecode/Verifier.h"
#include "opt/Compiler.h"
#include "opt/InlineOracle.h"
#include "opt/Inliner.h"
#include "fuzz/ProgramGenerator.h"
#include "vm/VirtualMachine.h"

#include <gtest/gtest.h>

using namespace cbs;
using namespace cbs::bc;
using namespace cbs::opt;

namespace {

/// Runs \p P with every method compiled through \p Plan at \p Level and
/// returns the output.
std::vector<int64_t> runWithPlan(const Program &P, const InlinePlan &Plan,
                                 int Level = 0) {
  vm::VMConfig Config;
  Config.MaxCycles = 500'000'000;
  Config.JITLevel = Level;
  auto Shared = std::make_shared<InlinePlan>(Plan);
  Config.CompileHook = makeCompileHook(Shared);
  vm::VirtualMachine VM(P, Config);
  EXPECT_EQ(VM.run(), vm::RunState::Finished) << VM.trapMessage();
  return VM.output();
}

std::vector<int64_t> runPlain(const Program &P) {
  return runWithPlan(P, InlinePlan());
}

/// Verifies the inlined body of every method under \p Plan.
void verifyAllInlined(const Program &P, const InlinePlan &Plan) {
  for (MethodId M = 0; M != P.numMethods(); ++M) {
    InlineResult R = inlineMethod(P, M, Plan);
    VerifyResult V = verifyMethodBody(P, M, R.Code, R.NumLocals);
    EXPECT_TRUE(V.ok()) << P.qualifiedName(M) << ":\n"
                        << V.str() << printCode(P, M, R.Code);
  }
}

} // namespace

TEST(Inliner, EmptyPlanIsIdentity) {
  Program P = fuzz::generateRandomProgram(1);
  InlinePlan Empty;
  for (MethodId M = 0; M != P.numMethods(); ++M) {
    InlineResult R = inlineMethod(P, M, Empty);
    EXPECT_EQ(R.Code.size(), P.method(M).Code.size());
    EXPECT_EQ(R.InlinedBodies, 0u);
  }
}

TEST(Inliner, DirectInlineRemovesCallAndPreservesSemantics) {
  ProgramBuilder PB;
  MethodId Callee = PB.declareStatic("callee", {ValKind::Int, ValKind::Int},
                                     /*HasResult=*/true);
  {
    MethodBuilder MB = PB.defineMethod(Callee);
    MB.iload(0).iload(1).isub().iret();
    MB.finish();
  }
  MethodId Main = PB.declareStatic("main");
  {
    MethodBuilder MB = PB.defineMethod(Main);
    MB.iconst(9).iconst(4).invokeStatic(Callee).print();
    MB.finish();
  }
  Program P = PB.finish(Main);

  InlinePlan Plan;
  Plan.Decisions[0] = {InlineDecision::Kind::Direct, Callee, {}};

  InlineResult R = inlineMethod(P, Main, Plan);
  EXPECT_EQ(R.InlinedBodies, 1u);
  for (const Instruction &I : R.Code)
    EXPECT_FALSE(isCall(I.Op)) << "call should be gone";
  EXPECT_TRUE(verifyMethodBody(P, Main, R.Code, R.NumLocals).ok());

  EXPECT_EQ(runWithPlan(P, Plan), runPlain(P));
  EXPECT_EQ(runPlain(P), (std::vector<int64_t>{5}));
}

TEST(Inliner, CalleeWithBranchesAndLocalsRemapsCorrectly) {
  ProgramBuilder PB;
  // callee(n): loop computing n * 3 via additions, using locals.
  MethodId Callee = PB.declareStatic("callee", {ValKind::Int},
                                     /*HasResult=*/true);
  {
    MethodBuilder MB = PB.defineMethod(Callee);
    MB.iconst(0).istore(1);
    MB.iconst(3).istore(2);
    Label Head = MB.newLabel(), Exit = MB.newLabel();
    MB.bind(Head).iload(2).ifLe(Exit);
    MB.iload(1).iload(0).iadd().istore(1);
    MB.iinc(2, -1).jump(Head);
    MB.bind(Exit).iload(1).iret();
    MB.finish();
  }
  MethodId Main = PB.declareStatic("main");
  {
    MethodBuilder MB = PB.defineMethod(Main);
    // Caller uses the same local slots to catch remapping bugs.
    MB.iconst(100).istore(1);
    MB.iconst(7).invokeStatic(Callee).print();
    MB.iload(1).print(); // Caller's local 1 must be intact.
    MB.finish();
  }
  Program P = PB.finish(Main);

  InlinePlan Plan;
  Plan.Decisions[0] = {InlineDecision::Kind::Direct, Callee, {}};
  verifyAllInlined(P, Plan);
  EXPECT_EQ(runWithPlan(P, Plan), (std::vector<int64_t>{21, 100}));
}

TEST(Inliner, GuardedInlineHitAndMissPaths) {
  ProgramBuilder PB;
  ClassId A = PB.addClass("A", InvalidClassId, 0);
  ClassId B = PB.addClass("B", InvalidClassId, 0);
  SelectorId Sel = PB.addSelector("val", 1);
  MethodId MA = PB.declareVirtual(A, Sel, "", {}, /*HasResult=*/true);
  {
    MethodBuilder MB = PB.defineMethod(MA);
    MB.iconst(111).iret();
    MB.finish();
  }
  MethodId MB_ = PB.declareVirtual(B, Sel, "", {}, /*HasResult=*/true);
  {
    MethodBuilder MB = PB.defineMethod(MB_);
    MB.iconst(222).iret();
    MB.finish();
  }
  MethodId Main = PB.declareStatic("main");
  {
    MethodBuilder MB = PB.defineMethod(Main);
    MB.newObject(A).invokeVirtual(Sel).print(); // site 0
    MB.newObject(B).invokeVirtual(Sel).print(); // site 1
    MB.finish();
  }
  Program P = PB.finish(Main);

  // Guard only predicts A at both sites; B must fall back to the call.
  InlinePlan Plan;
  InlineDecision D;
  D.K = InlineDecision::Kind::Guarded;
  D.Guarded.push_back({MA, {A}});
  Plan.Decisions[0] = D;
  Plan.Decisions[1] = D;

  verifyAllInlined(P, Plan);
  EXPECT_EQ(runWithPlan(P, Plan), (std::vector<int64_t>{111, 222}));

  // The fallback call must keep its original site id so residual calls
  // profile correctly.
  InlineResult R = inlineMethod(P, Main, Plan);
  bool FoundSite1Fallback = false;
  for (const Instruction &I : R.Code)
    if (I.Op == Opcode::InvokeVirtual && I.Site == 1)
      FoundSite1Fallback = true;
  EXPECT_TRUE(FoundSite1Fallback);
}

TEST(Inliner, MultiTargetGuardChainsDispatchCorrectly) {
  ProgramBuilder PB;
  ClassId A = PB.addClass("A", InvalidClassId, 0);
  ClassId B = PB.addClass("B", InvalidClassId, 0);
  ClassId C = PB.addClass("C", InvalidClassId, 0);
  SelectorId Sel = PB.addSelector("val", 1);
  std::vector<MethodId> Impls;
  int32_t Val = 100;
  for (ClassId K : {A, B, C}) {
    MethodId M = PB.declareVirtual(K, Sel, "", {}, /*HasResult=*/true);
    MethodBuilder MB = PB.defineMethod(M);
    MB.iconst(Val).iret();
    Val += 100;
    MB.finish();
    Impls.push_back(M);
  }
  MethodId Main = PB.declareStatic("main");
  {
    MethodBuilder MB = PB.defineMethod(Main);
    for (ClassId K : {A, B, C, B, A})
      MB.newObject(K).invokeVirtual(Sel).print();
    MB.finish();
  }
  Program P = PB.finish(Main);

  InlinePlan Plan;
  InlineDecision D;
  D.K = InlineDecision::Kind::Guarded;
  D.Guarded.push_back({Impls[0], {A}});
  D.Guarded.push_back({Impls[1], {B}});
  for (SiteId S = 0; S != 5; ++S)
    Plan.Decisions[S] = D;

  verifyAllInlined(P, Plan);
  EXPECT_EQ(runWithPlan(P, Plan),
            (std::vector<int64_t>{100, 200, 300, 200, 100}));
}

TEST(Inliner, RecursionIsCutNotInfinite) {
  ProgramBuilder PB;
  MethodId F = PB.declareStatic("f", {ValKind::Int}, /*HasResult=*/true);
  {
    MethodBuilder MB = PB.defineMethod(F);
    Label Base = MB.newLabel();
    MB.iload(0).ifLe(Base);
    MB.iload(0).iconst(1).isub().invokeStatic(F).iconst(1).iadd().iret();
    MB.bind(Base).iconst(0).iret();
    MB.finish();
  }
  MethodId Main = PB.declareStatic("main");
  {
    MethodBuilder MB = PB.defineMethod(Main);
    MB.iconst(6).invokeStatic(F).print();
    MB.finish();
  }
  Program P = PB.finish(Main);

  InlinePlan Plan;
  // Ask for f to be inlined everywhere, including inside itself.
  for (SiteId S = 0; S != P.numSites(); ++S)
    Plan.Decisions[S] = {InlineDecision::Kind::Direct, F, {}};

  verifyAllInlined(P, Plan);
  EXPECT_EQ(runWithPlan(P, Plan), (std::vector<int64_t>{6}));
}

TEST(Inliner, DepthLimitBoundsNesting) {
  // Chain a -> b -> c -> d; with MaxDepth 2 only two levels splice.
  ProgramBuilder PB;
  std::vector<MethodId> Chain;
  for (int I = 0; I != 4; ++I)
    Chain.push_back(PB.declareStatic("m" + std::to_string(I), {},
                                     /*HasResult=*/true));
  for (int I = 0; I != 4; ++I) {
    MethodBuilder MB = PB.defineMethod(Chain[I]);
    if (I == 3)
      MB.iconst(42);
    else
      MB.invokeStatic(Chain[I + 1]);
    MB.iret();
    MB.finish();
  }
  MethodId Main = PB.declareStatic("main");
  {
    MethodBuilder MB = PB.defineMethod(Main);
    MB.invokeStatic(Chain[0]).print();
    MB.finish();
  }
  Program P = PB.finish(Main);

  InlinePlan Plan;
  for (SiteId S = 0; S != P.numSites(); ++S) {
    const SiteInfo &Info = P.site(S);
    const Instruction &I = P.method(Info.Caller).Code[Info.PC];
    Plan.Decisions[S] = {InlineDecision::Kind::Direct,
                         static_cast<MethodId>(I.A),
                         {}};
  }

  InlinerOptions Opts;
  Opts.MaxDepth = 2;
  InlineResult R = inlineMethod(P, Main, Plan, Opts);
  EXPECT_EQ(R.InlinedBodies, 2u);
  bool HasResidualCall = false;
  for (const Instruction &I : R.Code)
    HasResidualCall |= isCall(I.Op);
  EXPECT_TRUE(HasResidualCall);
  EXPECT_EQ(runWithPlan(P, Plan), (std::vector<int64_t>{42}));
}

TEST(Inliner, SizeBudgetFallsBackToCalls) {
  ProgramBuilder PB;
  MethodId Big = PB.declareStatic("big", {}, /*HasResult=*/true);
  {
    MethodBuilder MB = PB.defineMethod(Big);
    for (int I = 0; I != 60; ++I)
      MB.iconst(I).istore(1);
    MB.iconst(1).iret();
    MB.finish();
  }
  MethodId Main = PB.declareStatic("main");
  {
    MethodBuilder MB = PB.defineMethod(Main);
    for (int I = 0; I != 10; ++I)
      MB.invokeStatic(Big).print();
    MB.finish();
  }
  Program P = PB.finish(Main);

  InlinePlan Plan;
  for (SiteId S = 0; S != P.numSites(); ++S)
    Plan.Decisions[S] = {InlineDecision::Kind::Direct, Big, {}};

  InlinerOptions Opts;
  Opts.MaxResultInstructions = 300;
  InlineResult R = inlineMethod(P, Main, Plan, Opts);
  EXPECT_GT(R.BudgetSkips, 0u);
  EXPECT_LE(R.Code.size(), 300u + 130u); // Budget plus one body of slack.
  EXPECT_TRUE(verifyMethodBody(P, Main, R.Code, R.NumLocals).ok());
}

TEST(Inliner, CompileMethodTracksCostAndScale) {
  Program P = fuzz::generateRandomProgram(3);
  InlinePlan Plan = TrivialOracle().plan(P, prof::DCGSnapshot());
  vm::CompiledMethod L0 = compileMethod(P, P.entryMethod(), 0, Plan);
  vm::CompiledMethod L2 = compileMethod(P, P.entryMethod(), 2, Plan);
  EXPECT_LT(L2.ScaleQ8, L0.ScaleQ8);
  EXPECT_GT(L2.CompileCostCycles, L0.CompileCostCycles);
}

//===----------------------------------------------------------------------===//
// Differential equivalence over random programs and oracles
//===----------------------------------------------------------------------===//

class InlineDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(InlineDifferentialTest, OraclePlansPreserveSemantics) {
  Program P = fuzz::generateRandomProgram(GetParam());
  ASSERT_TRUE(verifyProgram(P).ok()) << verifyProgram(P).str();
  std::vector<int64_t> Expected = runPlain(P);

  // Perfect profile to drive the profile-directed oracles.
  vm::VMConfig ExConfig;
  ExConfig.Profiler.Kind = vm::ProfilerKind::Exhaustive;
  ExConfig.Profiler.ChargeExhaustiveCounters = false;
  vm::VirtualMachine ExVM(P, ExConfig);
  ExVM.run();
  prof::DCGSnapshot DCG = ExVM.profile();

  TrivialOracle Trivial;
  OldJikesOracle Old;
  NewJikesOracle New;
  J9Oracle J9;
  for (const InlineOracle *O :
       std::initializer_list<const InlineOracle *>{&Trivial, &Old, &New,
                                                   &J9}) {
    InlinePlan Plan = O->plan(P, DCG);
    verifyAllInlined(P, Plan);
    EXPECT_EQ(runWithPlan(P, Plan, /*Level=*/0), Expected)
        << "oracle " << O->name();
    EXPECT_EQ(runWithPlan(P, Plan, /*Level=*/2), Expected)
        << "oracle " << O->name() << " with optimizer";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InlineDifferentialTest,
                         ::testing::Range<uint64_t>(1, 26));
