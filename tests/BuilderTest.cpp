//===- tests/BuilderTest.cpp - program builder tests ---------------------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//

#include "bytecode/Builder.h"
#include "bytecode/Printer.h"
#include "bytecode/Verifier.h"

#include <gtest/gtest.h>

#include <functional>

using namespace cbs;
using namespace cbs::bc;

namespace {

Program singleMethodProgram(const std::function<void(MethodBuilder &)> &Fill) {
  ProgramBuilder PB;
  MethodId Main = PB.declareStatic("main");
  MethodBuilder MB = PB.defineMethod(Main);
  Fill(MB);
  MB.finish();
  return PB.finish(Main);
}

} // namespace

TEST(Builder, EmptyVoidMethodGetsImplicitReturn) {
  Program P = singleMethodProgram([](MethodBuilder &) {});
  ASSERT_EQ(P.method(0).Code.size(), 1u);
  EXPECT_EQ(P.method(0).Code[0].Op, Opcode::Return);
}

TEST(Builder, ExplicitReturnNotDuplicated) {
  Program P = singleMethodProgram([](MethodBuilder &MB) { MB.ret(); });
  EXPECT_EQ(P.method(0).Code.size(), 1u);
}

TEST(Builder, LabelsResolveForwardAndBackward) {
  Program P = singleMethodProgram([](MethodBuilder &MB) {
    Label Back = MB.newLabel();
    Label Fwd = MB.newLabel();
    MB.iconst(0).istore(0);
    MB.bind(Back);                 // pc 2
    MB.iload(0).ifGt(Fwd);         // pc 3
    MB.iinc(0, 1).jump(Back);
    MB.bind(Fwd).ret();
  });
  const Method &M = P.method(0);
  // ifGt target is the final return; goto target is pc 2.
  EXPECT_EQ(M.Code[3].Op, Opcode::IfGt);
  EXPECT_EQ(static_cast<size_t>(M.Code[3].A), M.Code.size() - 1);
  EXPECT_EQ(M.Code[5].Op, Opcode::Goto);
  EXPECT_EQ(M.Code[5].A, 2);
  EXPECT_TRUE(verifyProgram(P).ok()) << verifyProgram(P).str();
}

TEST(Builder, LabelBoundAtEndTargetsImplicitReturn) {
  Program P = singleMethodProgram([](MethodBuilder &MB) {
    Label End = MB.newLabel();
    MB.jump(End);
    MB.bind(End);
  });
  const Method &M = P.method(0);
  ASSERT_EQ(M.Code.size(), 2u);
  EXPECT_EQ(M.Code[0].A, 1);
  EXPECT_EQ(M.Code[1].Op, Opcode::Return);
}

TEST(Builder, NumLocalsCoversArgsAndSlots) {
  ProgramBuilder PB;
  MethodId Id = PB.declareStatic("f", {ValKind::Int, ValKind::Int});
  MethodBuilder MB = PB.defineMethod(Id);
  MB.iconst(1).istore(7);
  MB.finish();
  MethodId Main = PB.declareStatic("main");
  MethodBuilder MainB = PB.defineMethod(Main);
  MainB.iconst(1).iconst(2).invokeStatic(Id);
  MainB.finish();
  Program P = PB.finish(Main);
  EXPECT_EQ(P.method(Id).NumLocals, 8u);
}

TEST(Builder, SiteIdsAreUniqueAndMapBack) {
  ProgramBuilder PB;
  MethodId Leaf = PB.declareStatic("leaf");
  {
    MethodBuilder MB = PB.defineMethod(Leaf);
    MB.finish();
  }
  MethodId Main = PB.declareStatic("main");
  {
    MethodBuilder MB = PB.defineMethod(Main);
    MB.invokeStatic(Leaf).invokeStatic(Leaf).invokeStatic(Leaf);
    MB.finish();
  }
  Program P = PB.finish(Main);
  ASSERT_EQ(P.numSites(), 3u);
  for (SiteId S = 0; S != 3; ++S) {
    EXPECT_EQ(P.site(S).Caller, Main);
    EXPECT_EQ(P.site(S).PC, S);
    EXPECT_EQ(P.method(Main).Code[S].Site, S);
  }
}

TEST(Builder, VirtualDeclarationWiresVTable) {
  ProgramBuilder PB;
  ClassId Base = PB.addClass("Base", InvalidClassId, 1);
  ClassId Sub = PB.addClass("Sub", Base, 1);
  SelectorId Sel = PB.addSelector("f", 1);
  MethodId BaseImpl =
      PB.declareVirtual(Base, Sel, "", {}, /*HasResult=*/true);
  {
    MethodBuilder MB = PB.defineMethod(BaseImpl);
    MB.iconst(1).iret();
    MB.finish();
  }
  MethodId Main = PB.declareStatic("main");
  {
    MethodBuilder MB = PB.defineMethod(Main);
    MB.newObject(Sub).invokeVirtual(Sel).print();
    MB.finish();
  }
  Program P = PB.finish(Main);
  // Sub inherits Base's implementation.
  EXPECT_EQ(P.hierarchy().lookup(Sub, Sel), BaseImpl);
  EXPECT_EQ(P.hierarchy().lookup(Base, Sel), BaseImpl);
  EXPECT_TRUE(P.hierarchy().derivesFrom(Sub, Base));
  EXPECT_FALSE(P.hierarchy().derivesFrom(Base, Sub));
}

TEST(Builder, OverrideShadowsInherited) {
  ProgramBuilder PB;
  ClassId Base = PB.addClass("Base", InvalidClassId, 0);
  ClassId Sub = PB.addClass("Sub", Base, 0);
  SelectorId Sel = PB.addSelector("f", 1);
  MethodId BaseImpl = PB.declareVirtual(Base, Sel);
  MethodId SubImpl = PB.declareVirtual(Sub, Sel);
  for (MethodId Id : {BaseImpl, SubImpl}) {
    MethodBuilder MB = PB.defineMethod(Id);
    MB.finish();
  }
  MethodId Main = PB.declareStatic("main");
  {
    MethodBuilder MB = PB.defineMethod(Main);
    MB.finish();
  }
  Program P = PB.finish(Main);
  EXPECT_EQ(P.hierarchy().lookup(Sub, Sel), SubImpl);
  EXPECT_EQ(P.hierarchy().lookup(Base, Sel), BaseImpl);
  auto Receivers = P.hierarchy().receiversOf(Sel, BaseImpl);
  ASSERT_EQ(Receivers.size(), 1u);
  EXPECT_EQ(Receivers[0], Base);
}

TEST(Builder, FieldsAccumulateThroughInheritance) {
  ProgramBuilder PB;
  ClassId A = PB.addClass("A", InvalidClassId, 2);
  ClassId B = PB.addClass("B", A, 3);
  MethodId Main = PB.declareStatic("main");
  {
    MethodBuilder MB = PB.defineMethod(Main);
    MB.finish();
  }
  Program P = PB.finish(Main);
  EXPECT_EQ(P.hierarchy().classOf(A).NumFields, 2u);
  EXPECT_EQ(P.hierarchy().classOf(B).NumFields, 5u);
}

TEST(Builder, SizeBytesMatchesOpcodeSizes) {
  Program P = singleMethodProgram([](MethodBuilder &MB) {
    MB.iconst(1).istore(0).iload(0).print();
  });
  // iconst(2) + istore(2) + iload(2) + print(1) + implicit return(1).
  EXPECT_EQ(P.method(0).sizeBytes(), 8u);
}

TEST(Builder, QualifiedNames) {
  ProgramBuilder PB;
  ClassId C = PB.addClass("Widget", InvalidClassId, 0);
  SelectorId Sel = PB.addSelector("render", 1);
  MethodId V = PB.declareVirtual(C, Sel);
  {
    MethodBuilder MB = PB.defineMethod(V);
    MB.finish();
  }
  MethodId Main = PB.declareStatic("main");
  {
    MethodBuilder MB = PB.defineMethod(Main);
    MB.finish();
  }
  Program P = PB.finish(Main);
  EXPECT_EQ(P.qualifiedName(V), "Widget::render");
  EXPECT_EQ(P.qualifiedName(Main), "main");
}

TEST(Builder, PrinterSmokeTest) {
  ProgramBuilder PB;
  ClassId C = PB.addClass("K", InvalidClassId, 1);
  SelectorId Sel = PB.addSelector("m", 1);
  MethodId V = PB.declareVirtual(C, Sel, "", {}, true);
  {
    MethodBuilder MB = PB.defineMethod(V);
    MB.work(5).iconst(1).iret();
    MB.finish();
  }
  MethodId Main = PB.declareStatic("main");
  {
    MethodBuilder MB = PB.defineMethod(Main);
    MB.newObject(C).invokeVirtual(Sel).print();
    MB.finish();
  }
  Program P = PB.finish(Main);
  std::string Out = printProgram(P);
  EXPECT_NE(Out.find("invokevirtual m"), std::string::npos);
  EXPECT_NE(Out.find("K::m"), std::string::npos);
  EXPECT_NE(Out.find("work 5"), std::string::npos);
}

TEST(Builder, MutualRecursionViaForwardDeclaration) {
  ProgramBuilder PB;
  MethodId F = PB.declareStatic("f", {ValKind::Int}, true);
  MethodId G = PB.declareStatic("g", {ValKind::Int}, true);
  {
    MethodBuilder MB = PB.defineMethod(F);
    Label Base = MB.newLabel();
    MB.iload(0).ifLe(Base);
    MB.iload(0).iconst(1).isub().invokeStatic(G).iret();
    MB.bind(Base).iconst(0).iret();
    MB.finish();
  }
  {
    MethodBuilder MB = PB.defineMethod(G);
    MB.iload(0).invokeStatic(F).iconst(1).iadd().iret();
    MB.finish();
  }
  MethodId Main = PB.declareStatic("main");
  {
    MethodBuilder MB = PB.defineMethod(Main);
    MB.iconst(5).invokeStatic(F).print();
    MB.finish();
  }
  Program P = PB.finish(Main);
  EXPECT_TRUE(verifyProgram(P).ok()) << verifyProgram(P).str();
}

//===----------------------------------------------------------------------===//
// Instruction-set table
//===----------------------------------------------------------------------===//

namespace {

/// One opcode's facts, pinned as literals: the encoded size feeds every
/// method's bytecode size (and so the inliner's thresholds), and the
/// cycles are the virtual time every run is measured in.
struct PinnedOpcode {
  Opcode Op;
  const char *Name;
  unsigned SizeBytes;
  uint32_t Cycles; ///< of an instruction whose A operand is 1
};

const PinnedOpcode Pinned[] = {
    {Opcode::Nop, "nop", 1, 1},
    {Opcode::IConst, "iconst", 2, 1},
    {Opcode::ILoad, "iload", 2, 1},
    {Opcode::IStore, "istore", 2, 1},
    {Opcode::IInc, "iinc", 3, 1},
    {Opcode::IAdd, "iadd", 1, 1},
    {Opcode::ISub, "isub", 1, 1},
    {Opcode::IMul, "imul", 1, 1},
    {Opcode::IDiv, "idiv", 1, 1},
    {Opcode::IRem, "irem", 1, 1},
    {Opcode::INeg, "ineg", 1, 1},
    {Opcode::IAnd, "iand", 1, 1},
    {Opcode::IOr, "ior", 1, 1},
    {Opcode::IXor, "ixor", 1, 1},
    {Opcode::IShl, "ishl", 1, 1},
    {Opcode::IShr, "ishr", 1, 1},
    {Opcode::Goto, "goto", 3, 1},
    {Opcode::IfEq, "ifeq", 3, 1},
    {Opcode::IfNe, "ifne", 3, 1},
    {Opcode::IfLt, "iflt", 3, 1},
    {Opcode::IfLe, "ifle", 3, 1},
    {Opcode::IfGt, "ifgt", 3, 1},
    {Opcode::IfGe, "ifge", 3, 1},
    {Opcode::IfICmpEq, "if_icmpeq", 3, 1},
    {Opcode::IfICmpNe, "if_icmpne", 3, 1},
    {Opcode::IfICmpLt, "if_icmplt", 3, 1},
    {Opcode::IfICmpGe, "if_icmpge", 3, 1},
    {Opcode::New, "new", 3, 16},
    {Opcode::GetField, "getfield", 2, 3},
    {Opcode::PutField, "putfield", 2, 3},
    {Opcode::ALoad, "aload", 2, 1},
    {Opcode::AStore, "astore", 2, 1},
    {Opcode::AConstNull, "aconst_null", 1, 1},
    {Opcode::ClassEq, "classeq", 3, 2},
    {Opcode::InvokeStatic, "invokestatic", 3, 15},
    {Opcode::InvokeVirtual, "invokevirtual", 3, 21},
    {Opcode::Return, "return", 1, 3},
    {Opcode::IReturn, "ireturn", 1, 3},
    {Opcode::AReturn, "areturn", 1, 3},
    {Opcode::Work, "work", 2, 1},
    {Opcode::Print, "print", 1, 8},
    {Opcode::Halt, "halt", 1, 1},
    {Opcode::Spawn, "spawn", 3, 400},
};

} // namespace

TEST(OpcodeTable, PinsNameSizeAndCyclesOfEveryOpcode) {
  ASSERT_EQ(std::size(Pinned), NumOpcodes);
  for (size_t I = 0; I != std::size(Pinned); ++I) {
    const PinnedOpcode &Row = Pinned[I];
    EXPECT_EQ(static_cast<size_t>(Row.Op), I) << Row.Name;
    EXPECT_STREQ(opcodeName(Row.Op), Row.Name);
    EXPECT_EQ(opcodeSizeBytes(Row.Op), Row.SizeBytes) << Row.Name;
    EXPECT_EQ(instructionCycles(Instruction(Row.Op, /*A=*/1, /*B=*/0)),
              Row.Cycles)
        << Row.Name;
  }
  EXPECT_EQ(instructionCycles(Instruction(Opcode::Work, 123)), 123u);
}

TEST(OpcodeTable, FlowFlagsMatchOperandsAndOpcodes) {
  for (size_t I = 0; I != NumOpcodes; ++I) {
    Opcode Op = static_cast<Opcode>(I);
    EXPECT_EQ(isBranch(Op), operandKind(Op) == OperandKind::Target)
        << opcodeName(Op);
    EXPECT_EQ(isConditionalBranch(Op), isBranch(Op) && Op != Opcode::Goto)
        << opcodeName(Op);
    EXPECT_EQ(isCall(Op),
              Op == Opcode::InvokeStatic || Op == Opcode::InvokeVirtual)
        << opcodeName(Op);
    EXPECT_EQ(isReturn(Op), Op == Opcode::Return || Op == Opcode::IReturn ||
                                Op == Opcode::AReturn)
        << opcodeName(Op);
  }
}
