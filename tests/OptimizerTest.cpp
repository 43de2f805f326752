//===- tests/OptimizerTest.cpp - optimizer pass tests --------------------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//

#include "bytecode/Builder.h"
#include "bytecode/Verifier.h"
#include "opt/Compiler.h"
#include "opt/Inliner.h"
#include "opt/Passes.h"
#include "fuzz/ProgramGenerator.h"
#include "vm/VirtualMachine.h"

#include <gtest/gtest.h>

using namespace cbs;
using namespace cbs::bc;
using namespace cbs::opt;

namespace {

using O = Opcode;
using I = Instruction;

/// A one-method program context for propagateLocalConstants tests (the
/// pass needs a Program for call signatures).
struct Ctx {
  Ctx() {
    ProgramBuilder PB;
    Helper = PB.declareStatic("h", {ValKind::Int}, /*HasResult=*/true);
    {
      MethodBuilder MB = PB.defineMethod(Helper);
      MB.iload(0).iret();
      MB.finish();
    }
    MethodId Main = PB.declareStatic("main");
    {
      MethodBuilder MB = PB.defineMethod(Main);
      MB.finish();
    }
    P.emplace(PB.finish(Main));
  }
  MethodId Helper;
  std::optional<Program> P;
};

} // namespace

//===----------------------------------------------------------------------===//
// foldConstants
//===----------------------------------------------------------------------===//

TEST(FoldConstants, FoldsBinops) {
  std::vector<Instruction> Code = {
      {O::IConst, 6}, {O::IConst, 7}, {O::IMul}, {O::Print}, {O::Return}};
  EXPECT_TRUE(foldConstants(Code));
  removeNops(Code);
  ASSERT_EQ(Code.size(), 3u);
  EXPECT_EQ(Code[0].Op, O::IConst);
  EXPECT_EQ(Code[0].A, 42);
}

TEST(FoldConstants, NeverFoldsTrappingDivision) {
  std::vector<Instruction> Code = {
      {O::IConst, 6}, {O::IConst, 0}, {O::IDiv}, {O::Print}, {O::Return}};
  EXPECT_FALSE(foldConstants(Code));
  EXPECT_EQ(Code[2].Op, O::IDiv) << "div-by-zero trap must be preserved";
}

TEST(FoldConstants, FoldsDivisionByNonzero) {
  std::vector<Instruction> Code = {
      {O::IConst, 42}, {O::IConst, 7}, {O::IDiv}, {O::Print}, {O::Return}};
  EXPECT_TRUE(foldConstants(Code));
  removeNops(Code);
  EXPECT_EQ(Code[0].A, 6);
}

TEST(FoldConstants, SkipsWhenPatternSpansBranchTarget) {
  // Someone jumps between the two constants: folding would break them.
  std::vector<Instruction> Code = {
      {O::Goto, 2},   // 0
      {O::IConst, 1}, // 1 (dead, but makes pc 2 a pattern middle)
      {O::IConst, 2}, // 2 <- branch target
      {O::IAdd},      // 3: would need operands from both paths
      {O::Print},     {O::Return}};
  // Target at pc 2 means Code[1], Code[2] cannot both be nop'd... the
  // implementation requires I-1 (pc 2) to not be a target: it is, so
  // nothing happens to the pattern at pc 3.
  foldConstants(Code);
  EXPECT_EQ(Code[3].Op, O::IAdd);
}

TEST(FoldConstants, FoldsConstantConditions) {
  std::vector<Instruction> Code = {
      {O::IConst, 0}, {O::IfEq, 3}, {O::Nop}, {O::IConst, 1},
      {O::Print},     {O::Return}};
  EXPECT_TRUE(foldConstants(Code));
  EXPECT_EQ(Code[1].Op, O::Goto) << "ifeq of constant 0 is always taken";
  std::vector<Instruction> Code2 = {
      {O::IConst, 5}, {O::IfEq, 3}, {O::Nop}, {O::IConst, 1},
      {O::Print},     {O::Return}};
  EXPECT_TRUE(foldConstants(Code2));
  EXPECT_EQ(Code2[1].Op, O::Nop) << "ifeq of constant 5 never taken";
}

TEST(FoldConstants, AlgebraicIdentities) {
  std::vector<Instruction> Code = {
      {O::ILoad, 0}, {O::IConst, 0}, {O::IAdd}, {O::Print}, {O::Return}};
  EXPECT_TRUE(foldConstants(Code));
  removeNops(Code);
  ASSERT_EQ(Code.size(), 3u);
  EXPECT_EQ(Code[0].Op, O::ILoad);
}

TEST(FoldConstants, WrapAroundMatchesInterpreter) {
  // INT32_MAX + 1 does not fit an IConst immediate: must not fold.
  std::vector<Instruction> Code = {{O::IConst, INT32_MAX},
                                   {O::IConst, 1},
                                   {O::IAdd},
                                   {O::Print},
                                   {O::Return}};
  EXPECT_FALSE(foldConstants(Code));
}

//===----------------------------------------------------------------------===//
// propagateLocalConstants
//===----------------------------------------------------------------------===//

TEST(LocalConstProp, PropagatesThroughStores) {
  Ctx C;
  std::vector<Instruction> Code = {
      {O::IConst, 9}, {O::IStore, 0}, {O::ILoad, 0}, {O::Print},
      {O::Return}};
  EXPECT_TRUE(propagateLocalConstants(*C.P, Code));
  EXPECT_EQ(Code[2].Op, O::IConst);
  EXPECT_EQ(Code[2].A, 9);
}

TEST(LocalConstProp, TracksIInc) {
  Ctx C;
  std::vector<Instruction> Code = {
      {O::IConst, 9}, {O::IStore, 0}, {O::IInc, 0, 5}, {O::ILoad, 0},
      {O::Print},     {O::Return}};
  EXPECT_TRUE(propagateLocalConstants(*C.P, Code));
  EXPECT_EQ(Code[3].Op, O::IConst);
  EXPECT_EQ(Code[3].A, 14);
}

TEST(LocalConstProp, ResetsAtBranchTargets) {
  Ctx C;
  std::vector<Instruction> Code = {
      {O::IConst, 9}, {O::IStore, 0},
      {O::ILoad, 1},  {O::IfEq, 6},     // Some branch...
      {O::IConst, 1}, {O::IStore, 0},   // ...that may change local 0.
      {O::ILoad, 0},                    // 6: merge point, value unknown.
      {O::Print},     {O::Return}};
  propagateLocalConstants(*C.P, Code);
  EXPECT_EQ(Code[6].Op, O::ILoad) << "merge point must not be rewritten";
}

TEST(LocalConstProp, CallsDoNotClobberLocals) {
  Ctx C;
  std::vector<Instruction> Code = {
      {O::IConst, 9},
      {O::IStore, 0},
      {O::IConst, 1},
      I(O::InvokeStatic, static_cast<int32_t>(C.Helper), 1, 0),
      {O::IStore, 1},
      {O::ILoad, 0},
      {O::Print},
      {O::Return}};
  EXPECT_TRUE(propagateLocalConstants(*C.P, Code));
  EXPECT_EQ(Code[5].Op, O::IConst) << "locals are private to the frame";
}

//===----------------------------------------------------------------------===//
// simplifyBranches / removeUnreachable / removeNops / fuseWork
//===----------------------------------------------------------------------===//

TEST(SimplifyBranches, CollapsesGotoChains) {
  std::vector<Instruction> Code = {
      {O::Goto, 2}, {O::Return}, {O::Goto, 4}, {O::Return}, {O::Return}};
  EXPECT_TRUE(simplifyBranches(Code));
  EXPECT_EQ(Code[0].A, 4);
}

TEST(SimplifyBranches, GotoToNextBecomesNop) {
  std::vector<Instruction> Code = {{O::Goto, 1}, {O::Return}};
  EXPECT_TRUE(simplifyBranches(Code));
  EXPECT_EQ(Code[0].Op, O::Nop);
}

TEST(SimplifyBranches, LeavesGotoSelfLoops) {
  std::vector<Instruction> Code = {{O::Goto, 0}, {O::Return}};
  simplifyBranches(Code);
  EXPECT_EQ(Code[0].Op, O::Goto);
  EXPECT_EQ(Code[0].A, 0);
}

TEST(RemoveUnreachable, NopsDeadCode) {
  std::vector<Instruction> Code = {
      {O::Goto, 3}, {O::IConst, 1}, {O::Print}, {O::Return}};
  EXPECT_TRUE(removeUnreachable(Code));
  EXPECT_EQ(Code[1].Op, O::Nop);
  EXPECT_EQ(Code[2].Op, O::Nop);
  EXPECT_EQ(Code[3].Op, O::Return);
}

TEST(RemoveNops, CompactsAndRemapsBranches) {
  std::vector<Instruction> Code = {
      {O::Nop}, {O::ILoad, 0}, {O::IfEq, 5}, {O::Nop}, {O::Print},
      {O::Return}};
  // pc5 Return; Print at 4 needs a value... construct coherently:
  Code = {{O::Nop},      // 0
          {O::ILoad, 0}, // 1
          {O::IfEq, 5},  // 2 -> 5
          {O::Nop},      // 3
          {O::Goto, 5},  // 4 -> 5
          {O::Return}};  // 5
  EXPECT_TRUE(removeNops(Code));
  ASSERT_EQ(Code.size(), 4u);
  EXPECT_EQ(Code[1].Op, O::IfEq);
  EXPECT_EQ(Code[1].A, 3);
  EXPECT_EQ(Code[2].A, 3);
}

TEST(FuseWork, MergesAdjacentWork) {
  std::vector<Instruction> Code = {
      {O::Work, 10}, {O::Work, 20}, {O::Work, 5}, {O::Return}};
  EXPECT_TRUE(fuseWork(Code));
  removeNops(Code);
  // One fusion pass merges pairs; run to fixpoint.
  while (fuseWork(Code))
    removeNops(Code);
  ASSERT_EQ(Code.size(), 2u);
  EXPECT_EQ(Code[0].A, 35);
}

TEST(FuseWork, RespectsBranchTargets) {
  std::vector<Instruction> Code = {
      {O::Work, 10}, {O::Work, 20}, {O::Goto, 1}, {O::Return}};
  // pc1 is a branch target: fusing would change the looped work amount.
  EXPECT_FALSE(fuseWork(Code));
}

//===----------------------------------------------------------------------===//
// Whole-pipeline differential tests
//===----------------------------------------------------------------------===//

namespace {

std::vector<int64_t> runAtLevel(const Program &P, int Level) {
  vm::VMConfig Config;
  Config.MaxCycles = 500'000'000;
  Config.JITLevel = Level;
  // Hook: no inlining, optimizer only.
  Config.CompileHook = [](const Program &Prog, MethodId Id,
                          int L) -> vm::CompiledMethod {
    return compileMethod(Prog, Id, L, InlinePlan());
  };
  vm::VirtualMachine VM(P, Config);
  EXPECT_EQ(VM.run(), vm::RunState::Finished) << VM.trapMessage();
  return VM.output();
}

} // namespace

class OptimizerDifferentialTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(OptimizerDifferentialTest, OutputUnchangedByOptimization) {
  Program P = fuzz::generateRandomProgram(GetParam());
  std::vector<int64_t> L0 = runAtLevel(P, 0);
  EXPECT_EQ(runAtLevel(P, 1), L0);
  EXPECT_EQ(runAtLevel(P, 2), L0);
}

TEST_P(OptimizerDifferentialTest, OptimizedCodeVerifies) {
  Program P = fuzz::generateRandomProgram(GetParam() + 1000);
  for (MethodId M = 0; M != P.numMethods(); ++M) {
    std::vector<Instruction> Code = P.method(M).Code;
    optimizeCode(P, Code, 2);
    VerifyResult V =
        verifyMethodBody(P, M, Code, P.method(M).NumLocals);
    EXPECT_TRUE(V.ok()) << P.qualifiedName(M) << "\n" << V.str();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizerDifferentialTest,
                         ::testing::Range<uint64_t>(1, 31));

TEST(Optimizer, Level0IsIdentity) {
  Program P = fuzz::generateRandomProgram(77);
  std::vector<Instruction> Code = P.method(P.entryMethod()).Code;
  OptimizerStats S = optimizeCode(P, Code, 0);
  EXPECT_FALSE(S.AnyChange);
  EXPECT_EQ(Code.size(), P.method(P.entryMethod()).Code.size());
}

TEST(Optimizer, InliningEnablesCrossBoundaryFolding) {
  // callee(k) { return k * 2; } called with constant 21: after inlining
  // plus optimization, the whole computation folds to a constant.
  ProgramBuilder PB;
  MethodId Callee = PB.declareStatic("callee", {ValKind::Int},
                                     /*HasResult=*/true);
  {
    MethodBuilder MB = PB.defineMethod(Callee);
    MB.iload(0).iconst(2).imul().iret();
    MB.finish();
  }
  MethodId Main = PB.declareStatic("main");
  {
    MethodBuilder MB = PB.defineMethod(Main);
    MB.iconst(21).invokeStatic(Callee).print();
    MB.finish();
  }
  Program P = PB.finish(Main);

  InlinePlan Plan;
  Plan.Decisions[0] = {InlineDecision::Kind::Direct, Callee, {}};
  InlineResult R = inlineMethod(P, Main, Plan);
  optimizeCode(P, R.Code, 2);

  // The optimized body is just: iconst 42; print; return.
  ASSERT_LE(R.Code.size(), 3u);
  EXPECT_EQ(R.Code[0].Op, O::IConst);
  EXPECT_EQ(R.Code[0].A, 42);
}
