//===- tests/InterpreterTest.cpp - execution semantics tests -------------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//

#include "bytecode/Builder.h"
#include "bytecode/Verifier.h"
#include "experiments/Experiments.h"
#include "experiments/Run.h"
#include "experiments/RunDriver.h"
#include "opt/Passes.h"
#include "support/ArgParser.h"
#include "vm/CostModel.h"
#include "vm/VirtualMachine.h"

#include <gtest/gtest.h>

#include <functional>
#include <string_view>

using namespace cbs;
using namespace cbs::bc;

namespace {

Program buildMain(const std::function<void(ProgramBuilder &, MethodBuilder &)>
                      &Fill) {
  ProgramBuilder PB;
  MethodId Main = PB.declareStatic("main");
  {
    MethodBuilder MB = PB.defineMethod(Main);
    Fill(PB, MB);
    MB.finish();
  }
  return PB.finish(Main);
}

/// Runs a verified program and returns its Print output.
std::vector<int64_t> runProgram(const Program &P,
                                vm::RunState Expected = vm::RunState::Finished) {
  VerifyResult V = verifyProgram(P);
  EXPECT_TRUE(V.ok()) << V.str();
  vm::VMConfig Config;
  Config.MaxCycles = 500'000'000;
  vm::VirtualMachine VM(P, Config);
  vm::RunState State = VM.run();
  EXPECT_EQ(State, Expected) << VM.trapMessage();
  return VM.output();
}

} // namespace

//===----------------------------------------------------------------------===//
// Arithmetic semantics (parameterized)
//===----------------------------------------------------------------------===//

struct BinopCase {
  Opcode Op;
  int64_t L, R, Expected;
};

/// gtest names each case after the raw bytes of its parameter, padding
/// included, so every case is built value-initialised: that zeroes the seven
/// padding bytes after Op and keeps the test names the same in every build
/// and run.
static BinopCase binop(Opcode Op, int64_t L, int64_t R, int64_t Expected) {
  BinopCase C{};
  C.Op = Op;
  C.L = L;
  C.R = R;
  C.Expected = Expected;
  return C;
}

class BinopTest : public ::testing::TestWithParam<BinopCase> {};

TEST_P(BinopTest, Evaluates) {
  const BinopCase &C = GetParam();
  Program P = buildMain([&](ProgramBuilder &, MethodBuilder &MB) {
    MB.iconst(C.L).iconst(C.R);
    switch (C.Op) {
    case Opcode::IAdd:
      MB.iadd();
      break;
    case Opcode::ISub:
      MB.isub();
      break;
    case Opcode::IMul:
      MB.imul();
      break;
    case Opcode::IDiv:
      MB.idiv();
      break;
    case Opcode::IRem:
      MB.irem();
      break;
    case Opcode::IAnd:
      MB.iand();
      break;
    case Opcode::IOr:
      MB.ior();
      break;
    case Opcode::IXor:
      MB.ixor();
      break;
    case Opcode::IShl:
      MB.ishl();
      break;
    case Opcode::IShr:
      MB.ishr();
      break;
    default:
      FAIL() << "unexpected opcode";
    }
    MB.print();
  });
  std::vector<int64_t> Out = runProgram(P);
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0], C.Expected);

  // The constant folder must compute what the interpreter did: iconst;
  // iconst; binop becomes nop; nop; iconst(result) whenever the result
  // fits an iconst immediate, and is left alone otherwise.
  std::vector<Instruction> Code = P.method(P.entryMethod()).Code;
  ASSERT_EQ(Code[2].Op, C.Op);
  opt::foldConstants(Code);
  bool Fits = C.Expected >= INT32_MIN && C.Expected <= INT32_MAX;
  ASSERT_EQ(Code[2].Op, Fits ? Opcode::IConst : C.Op) << opcodeName(C.Op);
  if (Fits) {
    EXPECT_EQ(Code[2].A, C.Expected) << opcodeName(C.Op);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Arithmetic, BinopTest,
    ::testing::Values(
        binop(Opcode::IAdd, 2, 3, 5),
        binop(Opcode::IAdd, INT32_MAX, 1, int64_t(INT32_MAX) + 1),
        binop(Opcode::ISub, 2, 3, -1),
        binop(Opcode::IMul, -4, 6, -24),
        binop(Opcode::IDiv, 7, 2, 3),
        binop(Opcode::IDiv, -7, 2, -3),
        binop(Opcode::IRem, 7, 3, 1),
        binop(Opcode::IRem, -7, 3, -1),
        binop(Opcode::IAnd, 0b1100, 0b1010, 0b1000),
        binop(Opcode::IOr, 0b1100, 0b1010, 0b1110),
        binop(Opcode::IXor, 0b1100, 0b1010, 0b0110),
        binop(Opcode::IShl, 3, 4, 48),
        binop(Opcode::IShl, 1, 64, 1),   // count masked to 63
        binop(Opcode::IShr, -16, 2, -4), // arithmetic shift
        binop(Opcode::IShr, 1024, 3, 128)));

TEST(Interpreter, NegationAndIncrement) {
  Program P = buildMain([](ProgramBuilder &, MethodBuilder &MB) {
    MB.iconst(5).ineg().print();
    MB.iconst(10).istore(0).iinc(0, -3).iload(0).print();
  });
  EXPECT_EQ(runProgram(P), (std::vector<int64_t>{-5, 7}));
}

//===----------------------------------------------------------------------===//
// Control flow
//===----------------------------------------------------------------------===//

TEST(Interpreter, CountedLoopSumsCorrectly) {
  Program P = buildMain([](ProgramBuilder &, MethodBuilder &MB) {
    // sum 1..100 == 5050
    MB.iconst(0).istore(1);
    MB.iconst(100).istore(0);
    Label Head = MB.newLabel(), Exit = MB.newLabel();
    MB.bind(Head).iload(0).ifLe(Exit);
    MB.iload(1).iload(0).iadd().istore(1);
    MB.iinc(0, -1).jump(Head);
    MB.bind(Exit).iload(1).print();
  });
  EXPECT_EQ(runProgram(P), (std::vector<int64_t>{5050}));
}

TEST(Interpreter, ConditionalFamiliesBranchCorrectly) {
  // For each condition opcode, print 1 when taken with operand -1, 0, 1.
  struct Case {
    std::function<MethodBuilder &(MethodBuilder &, Label)> Emit;
    int64_t Operand;
    bool Taken;
  };
  auto run = [&](auto EmitBranch, int64_t V) {
    Program P = buildMain([&](ProgramBuilder &, MethodBuilder &MB) {
      Label L = MB.newLabel();
      MB.iconst(V);
      EmitBranch(MB, L);
      MB.iconst(0).print().ret();
      MB.bind(L).iconst(1).print();
    });
    return runProgram(P)[0] == 1;
  };
  EXPECT_TRUE(run([](MethodBuilder &MB, Label L) { MB.ifEq(L); }, 0));
  EXPECT_FALSE(run([](MethodBuilder &MB, Label L) { MB.ifEq(L); }, 2));
  EXPECT_TRUE(run([](MethodBuilder &MB, Label L) { MB.ifNe(L); }, 2));
  EXPECT_TRUE(run([](MethodBuilder &MB, Label L) { MB.ifLt(L); }, -1));
  EXPECT_FALSE(run([](MethodBuilder &MB, Label L) { MB.ifLt(L); }, 0));
  EXPECT_TRUE(run([](MethodBuilder &MB, Label L) { MB.ifLe(L); }, 0));
  EXPECT_TRUE(run([](MethodBuilder &MB, Label L) { MB.ifGt(L); }, 1));
  EXPECT_TRUE(run([](MethodBuilder &MB, Label L) { MB.ifGe(L); }, 0));
}

TEST(Interpreter, CompareBranches) {
  auto run = [&](auto EmitBranch, int64_t L0, int64_t R0) {
    Program P = buildMain([&](ProgramBuilder &, MethodBuilder &MB) {
      Label L = MB.newLabel();
      MB.iconst(L0).iconst(R0);
      EmitBranch(MB, L);
      MB.iconst(0).print().ret();
      MB.bind(L).iconst(1).print();
    });
    return runProgram(P)[0] == 1;
  };
  EXPECT_TRUE(run([](MethodBuilder &MB, Label L) { MB.ifICmpEq(L); }, 4, 4));
  EXPECT_TRUE(run([](MethodBuilder &MB, Label L) { MB.ifICmpNe(L); }, 4, 5));
  EXPECT_TRUE(run([](MethodBuilder &MB, Label L) { MB.ifICmpLt(L); }, 3, 5));
  EXPECT_FALSE(run([](MethodBuilder &MB, Label L) { MB.ifICmpLt(L); }, 5, 5));
  EXPECT_TRUE(run([](MethodBuilder &MB, Label L) { MB.ifICmpGe(L); }, 5, 5));
}

//===----------------------------------------------------------------------===//
// Objects and fields
//===----------------------------------------------------------------------===//

TEST(Interpreter, FieldsStoreAndLoad) {
  Program P = buildMain([](ProgramBuilder &PB, MethodBuilder &MB) {
    ClassId C = PB.addClass("C", InvalidClassId, 2);
    MB.newObject(C).astore(0);
    MB.aload(0);
    MB.iconst(42);
    MB.putField(1);
    MB.aload(0).getField(1).print();
    MB.aload(0).getField(0).print(); // untouched field is zero
  });
  EXPECT_EQ(runProgram(P), (std::vector<int64_t>{42, 0}));
}

TEST(Interpreter, ClassEqIsExact) {
  Program P = buildMain([](ProgramBuilder &PB, MethodBuilder &MB) {
    ClassId Base = PB.addClass("Base", InvalidClassId, 0);
    ClassId Sub = PB.addClass("Sub", Base, 0);
    MB.newObject(Sub).classEq(Sub).print();  // 1
    MB.newObject(Sub).classEq(Base).print(); // 0: exact match only
    MB.aconstNull().classEq(Base).print();   // 0: null matches nothing
  });
  EXPECT_EQ(runProgram(P), (std::vector<int64_t>{1, 0, 0}));
}

//===----------------------------------------------------------------------===//
// Calls and dispatch
//===----------------------------------------------------------------------===//

TEST(Interpreter, StaticCallPassesArgsAndReturns) {
  ProgramBuilder PB;
  MethodId F = PB.declareStatic("f", {ValKind::Int, ValKind::Int},
                                /*HasResult=*/true);
  {
    MethodBuilder MB = PB.defineMethod(F);
    MB.iload(0).iload(1).isub().iret();
    MB.finish();
  }
  MethodId Main = PB.declareStatic("main");
  {
    MethodBuilder MB = PB.defineMethod(Main);
    MB.iconst(10).iconst(3).invokeStatic(F).print();
    MB.finish();
  }
  Program P = PB.finish(Main);
  EXPECT_EQ(runProgram(P), (std::vector<int64_t>{7}));
}

TEST(Interpreter, VirtualDispatchSelectsByReceiverClass) {
  ProgramBuilder PB;
  ClassId A = PB.addClass("A", InvalidClassId, 0);
  ClassId B = PB.addClass("B", A, 0);
  SelectorId Sel = PB.addSelector("tag", 1);
  MethodId MA = PB.declareVirtual(A, Sel, "", {}, /*HasResult=*/true);
  {
    MethodBuilder MB = PB.defineMethod(MA);
    MB.iconst(100).iret();
    MB.finish();
  }
  MethodId MB2 = PB.declareVirtual(B, Sel, "", {}, /*HasResult=*/true);
  {
    MethodBuilder MB = PB.defineMethod(MB2);
    MB.iconst(200).iret();
    MB.finish();
  }
  MethodId Main = PB.declareStatic("main");
  {
    MethodBuilder MB = PB.defineMethod(Main);
    MB.newObject(A).invokeVirtual(Sel).print();
    MB.newObject(B).invokeVirtual(Sel).print();
    MB.finish();
  }
  Program P = PB.finish(Main);
  EXPECT_EQ(runProgram(P), (std::vector<int64_t>{100, 200}));
}

TEST(Interpreter, InheritedMethodReceivesSubclassInstance) {
  ProgramBuilder PB;
  ClassId A = PB.addClass("A", InvalidClassId, 1);
  ClassId B = PB.addClass("B", A, 1);
  SelectorId Sel = PB.addSelector("firstField", 1);
  MethodId MA = PB.declareVirtual(A, Sel, "", {}, /*HasResult=*/true);
  {
    MethodBuilder MB = PB.defineMethod(MA);
    MB.aload(0).getField(0).iret();
    MB.finish();
  }
  MethodId Main = PB.declareStatic("main");
  {
    MethodBuilder MB = PB.defineMethod(Main);
    MB.newObject(B).astore(0);
    MB.aload(0).iconst(9).putField(0);
    MB.aload(0).invokeVirtual(Sel).print();
    MB.finish();
  }
  Program P = PB.finish(Main);
  EXPECT_EQ(runProgram(P), (std::vector<int64_t>{9}));
}

TEST(Interpreter, RecursionComputesFactorial) {
  ProgramBuilder PB;
  MethodId Fact = PB.declareStatic("fact", {ValKind::Int},
                                   /*HasResult=*/true);
  {
    MethodBuilder MB = PB.defineMethod(Fact);
    Label Base = MB.newLabel();
    MB.iload(0).iconst(1).ifICmpLt(Base);
    MB.iload(0).iload(0).iconst(1).isub().invokeStatic(Fact).imul().iret();
    MB.bind(Base).iconst(1).iret();
    MB.finish();
  }
  MethodId Main = PB.declareStatic("main");
  {
    MethodBuilder MB = PB.defineMethod(Main);
    MB.iconst(10).invokeStatic(Fact).print();
    MB.finish();
  }
  Program P = PB.finish(Main);
  EXPECT_EQ(runProgram(P), (std::vector<int64_t>{3628800}));
}

//===----------------------------------------------------------------------===//
// Traps
//===----------------------------------------------------------------------===//

TEST(Interpreter, DivisionByZeroTraps) {
  Program P = buildMain([](ProgramBuilder &, MethodBuilder &MB) {
    MB.iconst(1).iconst(0).idiv().print();
  });
  vm::VMConfig Config;
  vm::VirtualMachine VM(P, Config);
  EXPECT_EQ(VM.run(), vm::RunState::Trapped);
  EXPECT_NE(VM.trapMessage().find("division by zero"), std::string::npos);
}

TEST(Interpreter, RemainderByZeroTraps) {
  Program P = buildMain([](ProgramBuilder &, MethodBuilder &MB) {
    MB.iconst(1).iconst(0).irem().print();
  });
  vm::VMConfig Config;
  vm::VirtualMachine VM(P, Config);
  EXPECT_EQ(VM.run(), vm::RunState::Trapped);
}

TEST(Interpreter, NullFieldAccessTraps) {
  Program P = buildMain([](ProgramBuilder &PB, MethodBuilder &MB) {
    PB.addClass("C", InvalidClassId, 1);
    MB.aconstNull().getField(0).print();
  });
  vm::VMConfig Config;
  vm::VirtualMachine VM(P, Config);
  EXPECT_EQ(VM.run(), vm::RunState::Trapped);
  EXPECT_NE(VM.trapMessage().find("null"), std::string::npos);
}

TEST(Interpreter, FieldIndexOutOfRangeTraps) {
  Program P = buildMain([](ProgramBuilder &PB, MethodBuilder &MB) {
    ClassId C = PB.addClass("C", InvalidClassId, 1);
    MB.newObject(C).getField(5).print();
  });
  vm::VMConfig Config;
  vm::VirtualMachine VM(P, Config);
  EXPECT_EQ(VM.run(), vm::RunState::Trapped);
}

TEST(Interpreter, NullReceiverTraps) {
  ProgramBuilder PB;
  ClassId A = PB.addClass("A", InvalidClassId, 0);
  SelectorId Sel = PB.addSelector("m", 1);
  MethodId MA = PB.declareVirtual(A, Sel);
  {
    MethodBuilder MB = PB.defineMethod(MA);
    MB.finish();
  }
  MethodId Main = PB.declareStatic("main");
  {
    MethodBuilder MB = PB.defineMethod(Main);
    MB.aconstNull().invokeVirtual(Sel);
    MB.finish();
  }
  Program P = PB.finish(Main);
  vm::VMConfig Config;
  vm::VirtualMachine VM(P, Config);
  EXPECT_EQ(VM.run(), vm::RunState::Trapped);
}

TEST(Interpreter, DoesNotUnderstandTraps) {
  ProgramBuilder PB;
  ClassId A = PB.addClass("A", InvalidClassId, 0);
  ClassId B = PB.addClass("B", InvalidClassId, 0);
  SelectorId Sel = PB.addSelector("m", 1);
  MethodId MA = PB.declareVirtual(A, Sel);
  {
    MethodBuilder MB = PB.defineMethod(MA);
    MB.finish();
  }
  MethodId Main = PB.declareStatic("main");
  {
    MethodBuilder MB = PB.defineMethod(Main);
    MB.newObject(B).invokeVirtual(Sel); // B does not implement m.
    MB.finish();
  }
  Program P = PB.finish(Main);
  vm::VMConfig Config;
  vm::VirtualMachine VM(P, Config);
  EXPECT_EQ(VM.run(), vm::RunState::Trapped);
  EXPECT_NE(VM.trapMessage().find("does not understand"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Halting, limits, stats
//===----------------------------------------------------------------------===//

TEST(Interpreter, HaltStopsTheMachine) {
  Program P = buildMain([](ProgramBuilder &, MethodBuilder &MB) {
    MB.iconst(1).print().halt();
    MB.iconst(2).print(); // Unreachable.
  });
  vm::VMConfig Config;
  vm::VirtualMachine VM(P, Config);
  EXPECT_EQ(VM.run(), vm::RunState::Halted);
  EXPECT_EQ(VM.output(), (std::vector<int64_t>{1}));
}

TEST(Interpreter, MaxCyclesStopsInfiniteLoop) {
  Program P = buildMain([](ProgramBuilder &, MethodBuilder &MB) {
    Label Head = MB.newLabel();
    MB.bind(Head).work(100).jump(Head);
  });
  vm::VMConfig Config;
  Config.MaxCycles = 1'000'000;
  vm::VirtualMachine VM(P, Config);
  EXPECT_EQ(VM.run(), vm::RunState::CycleLimit);
  EXPECT_GE(VM.stats().Cycles, Config.MaxCycles);
}

TEST(Interpreter, CycleBudgetIsResumable) {
  Program P = buildMain([](ProgramBuilder &, MethodBuilder &MB) {
    MB.iconst(1000000).istore(0);
    Label Head = MB.newLabel(), Exit = MB.newLabel();
    MB.bind(Head).iload(0).ifLe(Exit);
    MB.work(50).iinc(0, -1).jump(Head);
    MB.bind(Exit).iconst(7).print();
  });
  vm::VMConfig Config;
  vm::VirtualMachine VM(P, Config);
  EXPECT_EQ(VM.run(1'000'000), vm::RunState::Running);
  while (VM.run(10'000'000) == vm::RunState::Running)
    ;
  EXPECT_EQ(VM.state(), vm::RunState::Finished);
  EXPECT_EQ(VM.output(), (std::vector<int64_t>{7}));
}

TEST(Interpreter, StatsCountCallsAndInstructions) {
  ProgramBuilder PB;
  MethodId F = PB.declareStatic("f");
  {
    MethodBuilder MB = PB.defineMethod(F);
    MB.work(10);
    MB.finish();
  }
  MethodId Main = PB.declareStatic("main");
  {
    MethodBuilder MB = PB.defineMethod(Main);
    MB.invokeStatic(F).invokeStatic(F).invokeStatic(F);
    MB.finish();
  }
  Program P = PB.finish(Main);
  vm::VMConfig Config;
  vm::VirtualMachine VM(P, Config);
  VM.run();
  EXPECT_EQ(VM.stats().CallsExecuted, 3u);
  // Work counts its modelled cycles as instructions.
  EXPECT_GE(VM.stats().Instructions, 30u);
  EXPECT_EQ(VM.methodsExecuted(), 2u);
  EXPECT_EQ(VM.invocationCounts()[F], 3u);
}

TEST(Interpreter, DeterministicAcrossRuns) {
  auto Run = [] {
    Program P = buildMain([](ProgramBuilder &, MethodBuilder &MB) {
      MB.iconst(12345).istore(0);
      MB.iconst(0).istore(1);
      Label Head = MB.newLabel(), Exit = MB.newLabel();
      MB.bind(Head).iload(0).ifLe(Exit);
      MB.iload(1).iload(0).ixor().istore(1);
      MB.iinc(0, -7).jump(Head);
      MB.bind(Exit).iload(1).print();
    });
    vm::VMConfig Config;
    vm::VirtualMachine VM(P, Config);
    VM.run();
    return std::pair(VM.output(), VM.stats().Cycles);
  };
  auto A = Run();
  auto B = Run();
  EXPECT_EQ(A.first, B.first);
  EXPECT_EQ(A.second, B.second);
}

//===----------------------------------------------------------------------===//
// The loop's event boundaries: budget slices, arena growth, cost tables
//===----------------------------------------------------------------------===//

namespace {

/// Everything a run leaves behind that virtual time decides.
struct SlicedRun {
  vm::RunState State = vm::RunState::Running;
  std::vector<std::pair<const char *, uint64_t>> Stats;
  std::vector<int64_t> Output;
  std::vector<prof::DCGSnapshot::Edge> Profile;
};

/// Runs \p Spec to its end in run() calls of \p Slice cycles each.
SlicedRun runInSlices(const exp::RunSpec &Spec, uint64_t Slice) {
  exp::Run R(Spec);
  SlicedRun Out;
  while ((Out.State = R.run(Slice)) == vm::RunState::Running)
    ;
  const vm::VMStats &S = R.vm().stats();
  Out.Stats = {
#define CBSVM_STAT_ROW(Field, Name, Kind) {Name, S.Field},
      CBSVM_VM_METRICS(CBSVM_STAT_ROW)
#undef CBSVM_STAT_ROW
  };
  Out.Output = R.vm().output();
  Out.Profile = R.vm().profile().sortedEdges();
  return Out;
}

void expectSameRun(const SlicedRun &Whole, const SlicedRun &Sliced) {
  EXPECT_EQ(Whole.State, Sliced.State);
  ASSERT_EQ(Whole.Stats.size(), Sliced.Stats.size());
  for (size_t I = 0; I != Whole.Stats.size(); ++I)
    EXPECT_EQ(Whole.Stats[I].second, Sliced.Stats[I].second)
        << Whole.Stats[I].first;
  EXPECT_EQ(Whole.Output, Sliced.Output);
  EXPECT_TRUE(Whole.Profile == Sliced.Profile) << "profiles differ";
}

/// A short program with calls, a virtual call, allocation, fields and
/// output: 3000 iterations of about 40 instructions.
Program shortProgram() {
  ProgramBuilder PB;
  ClassId Base = PB.addClass("Base");
  ClassId Sub = PB.addClass("Sub", Base, /*NumFields=*/1);
  SelectorId Get = PB.addSelector("get", 1);
  MethodId BaseGet = PB.declareVirtual(Base, Get, "get", {},
                                       /*HasResult=*/true);
  {
    MethodBuilder MB = PB.defineMethod(BaseGet);
    MB.iconst(3).iret();
    MB.finish();
  }
  MethodId SubGet = PB.declareVirtual(Sub, Get, "get", {},
                                      /*HasResult=*/true);
  {
    MethodBuilder MB = PB.defineMethod(SubGet);
    MB.aload(0).getField(0).iret();
    MB.finish();
  }
  MethodId Mix = PB.declareStatic("mix", {ValKind::Int, ValKind::Int},
                                  /*HasResult=*/true);
  {
    MethodBuilder MB = PB.defineMethod(Mix);
    MB.iload(0).iconst(31).imul().iload(1).ixor().work(5).iret();
    MB.finish();
  }
  MethodId Main = PB.declareStatic("main");
  {
    MethodBuilder MB = PB.defineMethod(Main);
    // locals: 0 count, 1 acc, 2 object
    MB.iconst(3000).istore(0).iconst(0).istore(1);
    Label Head = MB.newLabel(), Exit = MB.newLabel(), Odd = MB.newLabel(),
          Call = MB.newLabel();
    MB.bind(Head).iload(0).ifLe(Exit);
    MB.iload(0).iconst(1).iand().ifNe(Odd);
    MB.newObject(Base).astore(2).jump(Call);
    MB.bind(Odd).newObject(Sub).astore(2);
    MB.aload(2).iload(0).putField(0);
    MB.bind(Call).iload(1).aload(2).invokeVirtual(Get).invokeStatic(Mix);
    MB.istore(1).iinc(0, -1).jump(Head);
    MB.bind(Exit).iload(1).print();
    MB.finish();
  }
  return PB.finish(Main);
}

} // namespace

TEST(Interpreter, BudgetSlicingIsInvisible) {
  // Slices of 97 cycles, of the perf ledger's 2.5M, and of one cycle
  // (short program only) stop the loop at arbitrary instructions, each
  // stop writing the loop's state back and the next run() reloading it.
  // None of that may show in any counter, the output or the profile.
  const std::vector<std::vector<std::string>> Setups = {
      {"jess", "--profiler", "none"},
      {"jess", "--profiler", "cbs"},
      {"phased", "--profiler", "cbs", "--aos", "--osr", "--deopt-threshold",
       "60"},
  };
  Program Short = shortProgram();
  ASSERT_TRUE(verifyProgram(Short).ok()) << verifyProgram(Short).str();
  for (const std::vector<std::string> &Argv : Setups) {
    SCOPED_TRACE(Argv[0] + " " + Argv[2] + (Argv.size() > 3 ? " aos" : ""));
    support::ArgParser Args(Argv);
    exp::RunSetup S = exp::parseRunSetup(Args);
    exp::RunSpec Spec{&S.P, S.Config, S.AOS};
    SlicedRun Whole = runInSlices(Spec, UINT64_MAX);
    ASSERT_EQ(Whole.State, vm::RunState::Finished);
    if (S.AOS) {
      for (const auto &[Name, Value] : Whole.Stats) {
        if (std::string_view(Name) == "vm.deopts" ||
            std::string_view(Name) == "vm.osr_entries") {
          EXPECT_GE(Value, 1u) << Name;
        }
      }
    }
    for (uint64_t Slice : {uint64_t{97}, uint64_t{2'500'000}}) {
      SCOPED_TRACE("slice " + std::to_string(Slice));
      expectSameRun(Whole, runInSlices(Spec, Slice));
    }

    exp::RunSpec ShortSpec = Spec;
    ShortSpec.P = &Short;
    exp::applyJitOnly(Short, ShortSpec.Config);
    ShortSpec.Config.TimerPeriodCycles = 2'000;
    SCOPED_TRACE("short program, 1-cycle slices");
    SlicedRun ShortWhole = runInSlices(ShortSpec, UINT64_MAX);
    ASSERT_EQ(ShortWhole.State, vm::RunState::Finished);
    expectSameRun(ShortWhole, runInSlices(ShortSpec, 1));
  }
}

TEST(Interpreter, DeepRecursionGrowsTheValueArena) {
  // sum(n) = n == 0 ? 0 : n + sum(n - 1), with n live on the operand
  // stack under every call: 10^5 frames of two values each grow the
  // arena from its initial slots through nine doublings.
  constexpr int32_t Depth = 100'000;
  ProgramBuilder PB;
  MethodId Sum = PB.declareStatic("sum", {ValKind::Int}, /*HasResult=*/true);
  {
    MethodBuilder MB = PB.defineMethod(Sum);
    Label Base = MB.newLabel();
    MB.iload(0).ifLe(Base);
    MB.iload(0).iload(0).iconst(1).isub().invokeStatic(Sum).iadd().iret();
    MB.bind(Base).iconst(0).iret();
    MB.finish();
  }
  MethodId Main = PB.declareStatic("main");
  {
    MethodBuilder MB = PB.defineMethod(Main);
    MB.iconst(7).iconst(Depth).invokeStatic(Sum).print().print();
    MB.finish();
  }
  Program P = PB.finish(Main);
  ASSERT_TRUE(verifyProgram(P).ok());
  const int64_t Expected = int64_t{Depth} * (Depth + 1) / 2;
  // main, then sum(Depth) down to sum(0).
  const uint64_t Frames = Depth + 2;

  vm::VMConfig Config;
  vm::VirtualMachine Whole(P, Config);
  EXPECT_EQ(Whole.run(), vm::RunState::Finished) << Whole.trapMessage();
  EXPECT_EQ(Whole.output(), (std::vector<int64_t>{Expected, 7}));
  EXPECT_EQ(Whole.stats().MaxStackDepth, Frames);

  // The same run stopped by budgets, once part-way down the recursion.
  vm::VirtualMachine Sliced(P, Config);
  EXPECT_EQ(Sliced.run(Whole.stats().Cycles / 4), vm::RunState::Running);
  EXPECT_GT(Sliced.stats().MaxStackDepth, 1000u);
  EXPECT_LT(Sliced.stats().MaxStackDepth, Frames);
  while (Sliced.run(10'007) == vm::RunState::Running)
    ;
  EXPECT_EQ(Sliced.state(), vm::RunState::Finished);
  EXPECT_EQ(Sliced.output(), Whole.output());
  EXPECT_EQ(Sliced.stats().MaxStackDepth, Frames);
  EXPECT_EQ(Sliced.stats().Cycles, Whole.stats().Cycles);
  EXPECT_EQ(Sliced.stats().Instructions, Whole.stats().Instructions);
}

TEST(Interpreter, DeoptedFrameChargesUnscaledCycles) {
  // main runs at level 2 and charges ScaleQ8-scaled cycles. After
  // deoptimize() it keeps that speed until its next taken yieldpoint
  // (here f's prologue, taken for a timer tick), then charges exactly
  // the unscaled cycles.
  ProgramBuilder PB;
  MethodId F = PB.declareStatic("f");
  {
    MethodBuilder MB = PB.defineMethod(F);
    MB.ret();
    MB.finish();
  }
  MethodId Main = PB.declareStatic("main");
  {
    MethodBuilder MB = PB.defineMethod(Main);
    MB.work(1000).work(1000).invokeStatic(F).work(1000).work(1000);
    MB.finish();
  }
  Program P = PB.finish(Main);
  ASSERT_TRUE(verifyProgram(P).ok());

  vm::VMConfig Config;
  Config.JITLevel = 2;
  Config.TimerJitterPct = 0;
  // main's level-2 body, as the VM's lazy compile builds it.
  const vm::CompiledMethod Level2 =
      vm::CodeCache::compileBaseline(P, Main, 2);
  ASSERT_LT(Level2.ScaleQ8, 256u);
  const uint64_t Scaled = Level2.scaledCost(1000);
  // The first tick falls just before the call.
  Config.TimerPeriodCycles = 2 * Scaled;
  vm::VirtualMachine VM(P, Config);
  const vm::VMStats &S = VM.stats();

  // run(1) executes exactly one instruction when nothing else is due.
  EXPECT_EQ(VM.run(1), vm::RunState::Running);
  EXPECT_EQ(S.Cycles, Scaled);
  EXPECT_EQ(S.Instructions, 1000u);

  ASSERT_TRUE(VM.deoptimize(Main));
  EXPECT_EQ(VM.run(1), vm::RunState::Running);
  EXPECT_EQ(S.Cycles, 2 * Scaled) << "deopt is lazy: still scaled";
  EXPECT_EQ(S.FramesDeopted, 0u);

  // The tick, the call (still scaled), then f's prologue yieldpoint:
  // the deopt transition and the tick service.
  uint64_t Before = S.Cycles;
  EXPECT_EQ(VM.run(1), vm::RunState::Running);
  EXPECT_EQ(S.TimerTicks, 1u);
  EXPECT_EQ(S.FramesDeopted, 1u);
  const vm::CompiledMethod *FCode = VM.codeCache().active(F);
  ASSERT_NE(FCode, nullptr);
  uint64_t InvokeCost =
      Level2.scaledCost(bc::opcodeInfo(Opcode::InvokeStatic).Cycles);
  EXPECT_EQ(S.Cycles - Before, vm::cost::TimerInterrupt + InvokeCost +
                                   vm::cost::DeoptCost + vm::cost::TickService);

  // f's return, at f's own (level 2) speed.
  Before = S.Cycles;
  EXPECT_EQ(VM.run(1), vm::RunState::Running);
  EXPECT_EQ(S.Cycles - Before,
            FCode->scaledCost(bc::opcodeInfo(Opcode::Return).Cycles));

  // Back in the deopted main: unscaled.
  Before = S.Cycles;
  EXPECT_EQ(VM.run(1), vm::RunState::Running);
  EXPECT_EQ(S.Cycles - Before, 1000u);
  Before = S.Cycles;
  EXPECT_EQ(VM.run(1), vm::RunState::Running);
  EXPECT_EQ(S.Cycles - Before, 1000u);
  EXPECT_EQ(VM.run(), vm::RunState::Finished);
}
