//===- workloads/Kawa.cpp - Kawa Scheme analogue -------------------------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
//
// kawa runs a Scheme system compiled to the JVM: the largest method
// population in Table 1 (1794 executed on small), deep recursive
// evaluation over expression-node classes, and a hot apply/eval
// dispatch whose receiver set is wide but has a clear head (literals
// and variable references dominate real Scheme ASTs).
//
//===----------------------------------------------------------------------===//

#include "workloads/Workloads.h"

using namespace cbs;
using namespace cbs::bc;
using namespace cbs::wl;

Program wl::buildKawa(InputSize Size, uint64_t Seed) {
  ProgramBuilder PB;
  RandomEngine RNG(Seed * 7561 + 11);

  MethodId Init = makeInitPhase(PB, "kawa", 700, RNG);
  MethodId Tail = makeColdTail(PB, "kawa", 1024, RNG);

  ClassId Expr = PB.addClass("Expr", InvalidClassId, 1);
  ClassId Literal = PB.addClass("Literal", Expr, 1);
  ClassId VarRef = PB.addClass("VarRef", Expr, 1);
  ClassId Application = PB.addClass("Application", Expr, 1);
  ClassId Lambda = PB.addClass("Lambda", Expr, 1);
  ClassId IfExpr = PB.addClass("IfExpr", Expr, 1);

  SelectorId Eval = PB.addSelector("eval", /*NumArgs=*/2);
  MethodId EnvLookup = makeStaticLeaf(PB, "envLookup", 7, 1, 3);
  MethodId MakeClosure = makeStaticLeaf(PB, "makeClosure", 13, 1, 6);

  // Leaf node kinds.
  auto defineLeaf = [&](ClassId C, int32_t Work, MethodId Helper) {
    MethodId Id = PB.declareVirtual(C, Eval, "", {}, /*HasResult=*/true,
                                    ValKind::Int);
    MethodBuilder MB = PB.defineMethod(Id);
    MB.work(Work).iload(1).invokeStatic(Helper).iret();
    MB.finish();
  };
  defineLeaf(Literal, 4, EnvLookup);  // constant fold via env? cheap
  defineLeaf(VarRef, 6, EnvLookup);
  defineLeaf(Lambda, 9, MakeClosure);

  // evalTree(depth): the recursive evaluator core; Application and
  // IfExpr recurse through it.
  MethodId EvalTree = PB.declareStatic("evalTree", {ValKind::Int},
                                       /*HasResult=*/true, ValKind::Int);
  for (auto [C, Work] : {std::pair{Application, 11}, std::pair{IfExpr, 7}}) {
    MethodId Id = PB.declareVirtual(C, Eval, "", {}, /*HasResult=*/true,
                                    ValKind::Int);
    MethodBuilder MB = PB.defineMethod(Id);
    MB.work(Work).iload(1).iconst(1).isub().invokeStatic(EvalTree).iret();
    MB.finish();
  }
  {
    MethodBuilder MB = PB.defineMethod(EvalTree);
    // Locals: 0 depth, 1 acc, 2 j, 3 scratch, 4..8 refs.
    Label Leaf = MB.newLabel();
    MB.iload(0).ifLe(Leaf);
    MB.newObject(Literal).astore(4);
    MB.newObject(VarRef).astore(5);
    MB.newObject(Application).astore(6);
    MB.newObject(IfExpr).astore(7);
    MB.iconst(0).istore(1);
    emitCountedLoop(MB, /*CounterSlot=*/2, 3, [&] {
      // literals 6/16, varrefs 5/16, applications 3/16, ifs 2/16.
      MB.iload(2).iload(0).iadd().iconst(15).iand().istore(3);
      std::vector<WeightedRef> Pick = {{4, 6}, {5, 11}, {6, 14}, {7, 16}};
      emitPickReceiver(MB, 3, Pick, 16);
      MB.iload(0).invokeVirtual(Eval).iload(1).iadd().istore(1);
    });
    MB.iload(1).iret();
    MB.bind(Leaf).work(3).iconst(1).iret();
    MB.finish();
  }

  MethodId Main = PB.declareStatic("main");
  {
    MethodBuilder MB = PB.defineMethod(Main);
    MB.invokeStatic(Init).istore(1);
    int64_t Forms = scaleIterations(Size, 14'000);
    emitCountedLoop(MB, /*CounterSlot=*/0, Forms, [&] {
      MB.iconst(6).invokeStatic(EvalTree).iload(1).iadd().istore(1);
      MB.iload(0).invokeStatic(Tail)
          .iload(1).iadd().istore(1);
    });
    MB.iload(1).print();
    MB.finish();
  }
  return PB.finish(Main);
}
