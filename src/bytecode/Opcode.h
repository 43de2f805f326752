//===- bytecode/Opcode.h - Instruction set ----------------------*- C++ -*-===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The CBSVM instruction set: a small JVM-like operand-stack ISA with
/// integer arithmetic, object fields, static and virtual calls, and an
/// abstract `Work` instruction that models a stretch of non-call
/// computation (the getfield/putfield runs of the paper's Figure 1)
/// without paying host interpretation cost per modelled instruction.
///
/// Every per-opcode fact lives in one row of CBSVM_OPCODES; the enum,
/// the mnemonics, the encoded sizes, the operand and flow kinds and the
/// base cycle costs are all generated from it. The integer semantics
/// the interpreter executes and the optimizer folds are defined once,
/// below the table.
///
//===----------------------------------------------------------------------===//

#ifndef CBSVM_BYTECODE_OPCODE_H
#define CBSVM_BYTECODE_OPCODE_H

#include <cstddef>
#include <cstdint>
#include <iterator>

namespace cbs::bc {

/// What an instruction's A (and B) operand means.
enum class OperandKind : uint8_t {
  None,
  Imm,      ///< A = immediate value
  Slot,     ///< A = local slot
  SlotImm,  ///< A = local slot, B = immediate (iinc)
  Target,   ///< A = branch target instruction index
  Class,    ///< A = ClassId
  Field,    ///< A = field index
  Method,   ///< A = MethodId (B = argument count on calls)
  Selector, ///< A = SelectorId, B = argument count including receiver
  Cycles,   ///< A = modelled cycles (>= 1)
};

/// How control leaves an instruction.
enum class FlowKind : uint8_t {
  Next,       ///< falls through to PC + 1
  Goto,       ///< always jumps to A
  UnaryCond,  ///< pops v; jumps to A if v <cond> 0, else falls through
  BinaryCond, ///< pops rhs, lhs; jumps to A if lhs <cond> rhs
  Call,       ///< enters the callee; resumes at PC + 1 on return
  Return,     ///< leaves the method
  Halt,       ///< stops the whole virtual machine
};

// The instruction set, one row per opcode in encoding order:
//   X(Enumerator, mnemonic, encoded bytes, operand kind, flow kind, cycles)
// The encoded size is the modelled bytecode size the paper's inliner
// thresholds are expressed in. Cycles are the opcode's base (unscaled)
// virtual-time cost; `work` charges its operand instead (its 0 here).
// Calls: A = MethodId (static) or SelectorId (virtual), B = argument
// count including the receiver, and Instruction::Site carries the
// program-unique call site id. Binary operators pop rhs, then lhs, and
// push the result; idiv and irem trap on a zero divisor. `spawn` starts
// a green thread running a static, argumentless, void method (used by
// the multithreaded workloads jbb and mtrt; the paper's J9
// implementation motivates thread-local sampling counters).
#define CBSVM_OPCODES(X)                                                       \
  X(Nop, "nop", 1, None, Next, 1)                                              \
  X(IConst, "iconst", 2, Imm, Next, 1)                                         \
  X(ILoad, "iload", 2, Slot, Next, 1)                                          \
  X(IStore, "istore", 2, Slot, Next, 1)                                        \
  X(IInc, "iinc", 3, SlotImm, Next, 1)                                         \
  X(IAdd, "iadd", 1, None, Next, 1)                                            \
  X(ISub, "isub", 1, None, Next, 1)                                            \
  X(IMul, "imul", 1, None, Next, 1)                                            \
  X(IDiv, "idiv", 1, None, Next, 1)                                            \
  X(IRem, "irem", 1, None, Next, 1)                                            \
  X(INeg, "ineg", 1, None, Next, 1)                                            \
  X(IAnd, "iand", 1, None, Next, 1)                                            \
  X(IOr, "ior", 1, None, Next, 1)                                              \
  X(IXor, "ixor", 1, None, Next, 1)                                            \
  X(IShl, "ishl", 1, None, Next, 1)                                            \
  X(IShr, "ishr", 1, None, Next, 1)                                            \
  X(Goto, "goto", 3, Target, Goto, 1)                                          \
  X(IfEq, "ifeq", 3, Target, UnaryCond, 1)                                     \
  X(IfNe, "ifne", 3, Target, UnaryCond, 1)                                     \
  X(IfLt, "iflt", 3, Target, UnaryCond, 1)                                     \
  X(IfLe, "ifle", 3, Target, UnaryCond, 1)                                     \
  X(IfGt, "ifgt", 3, Target, UnaryCond, 1)                                     \
  X(IfGe, "ifge", 3, Target, UnaryCond, 1)                                     \
  X(IfICmpEq, "if_icmpeq", 3, Target, BinaryCond, 1)                           \
  X(IfICmpNe, "if_icmpne", 3, Target, BinaryCond, 1)                           \
  X(IfICmpLt, "if_icmplt", 3, Target, BinaryCond, 1)                           \
  X(IfICmpGe, "if_icmpge", 3, Target, BinaryCond, 1)                           \
  X(New, "new", 3, Class, Next, 16)                                            \
  X(GetField, "getfield", 2, Field, Next, 3)                                   \
  X(PutField, "putfield", 2, Field, Next, 3)                                   \
  X(ALoad, "aload", 2, Slot, Next, 1)                                          \
  X(AStore, "astore", 2, Slot, Next, 1)                                        \
  X(AConstNull, "aconst_null", 1, None, Next, 1)                               \
  X(ClassEq, "classeq", 3, Class, Next, 2)                                     \
  X(InvokeStatic, "invokestatic", 3, Method, Call, 15)                         \
  X(InvokeVirtual, "invokevirtual", 3, Selector, Call, 21)                     \
  X(Return, "return", 1, None, Return, 3)                                      \
  X(IReturn, "ireturn", 1, None, Return, 3)                                    \
  X(AReturn, "areturn", 1, None, Return, 3)                                    \
  X(Work, "work", 2, Cycles, Next, 0)                                          \
  X(Print, "print", 1, None, Next, 8)                                          \
  X(Halt, "halt", 1, None, Halt, 1)                                            \
  X(Spawn, "spawn", 3, Method, Next, 400)

enum class Opcode : uint8_t {
#define CBSVM_OPCODE_ENUM(Name, Mnemonic, Bytes, Operand, Flow, Cycles) Name,
  CBSVM_OPCODES(CBSVM_OPCODE_ENUM)
#undef CBSVM_OPCODE_ENUM
};

/// One row of the instruction-set table.
struct OpcodeInfo {
  const char *Name;
  uint8_t SizeBytes;
  OperandKind Operand;
  FlowKind Flow;
  uint16_t Cycles;
};

inline constexpr OpcodeInfo OpcodeTable[] = {
#define CBSVM_OPCODE_INFO(Name, Mnemonic, Bytes, Operand, Flow, Cycles)        \
  {Mnemonic, Bytes, OperandKind::Operand, FlowKind::Flow, Cycles},
    CBSVM_OPCODES(CBSVM_OPCODE_INFO)
#undef CBSVM_OPCODE_INFO
};

inline constexpr size_t NumOpcodes = std::size(OpcodeTable);
static_assert(NumOpcodes == static_cast<size_t>(Opcode::Spawn) + 1,
              "one table row per opcode");

constexpr const OpcodeInfo &opcodeInfo(Opcode Op) {
  return OpcodeTable[static_cast<size_t>(Op)];
}

/// Returns a stable mnemonic, e.g. "invokevirtual".
constexpr const char *opcodeName(Opcode Op) { return opcodeInfo(Op).Name; }

/// Modelled encoded size in bytes of one instruction; the sum over a
/// method is its "bytecode size".
constexpr unsigned opcodeSizeBytes(Opcode Op) {
  return opcodeInfo(Op).SizeBytes;
}

constexpr OperandKind operandKind(Opcode Op) { return opcodeInfo(Op).Operand; }
constexpr FlowKind flowKind(Opcode Op) { return opcodeInfo(Op).Flow; }

/// True for conditional branches only.
constexpr bool isConditionalBranch(Opcode Op) {
  return flowKind(Op) == FlowKind::UnaryCond ||
         flowKind(Op) == FlowKind::BinaryCond;
}

/// True for Goto and all conditional branches.
constexpr bool isBranch(Opcode Op) {
  return flowKind(Op) == FlowKind::Goto || isConditionalBranch(Op);
}

/// True for InvokeStatic / InvokeVirtual.
constexpr bool isCall(Opcode Op) { return flowKind(Op) == FlowKind::Call; }

/// True for Return / IReturn / AReturn.
constexpr bool isReturn(Opcode Op) { return flowKind(Op) == FlowKind::Return; }

/// False when control never reaches PC + 1 directly (goto, returns,
/// halt).
constexpr bool fallsThrough(Opcode Op) {
  return flowKind(Op) != FlowKind::Goto && !isReturn(Op) &&
         flowKind(Op) != FlowKind::Halt;
}

//===----------------------------------------------------------------------===//
// Integer semantics, shared by the interpreter and the constant folder
//===----------------------------------------------------------------------===//

/// True for the ten binary integer operators, iadd through ishr.
constexpr bool isBinop(Opcode Op) {
  return Op >= Opcode::IAdd && Op <= Opcode::IShr && Op != Opcode::INeg;
}

/// True for the binary operators that trap on a zero right operand.
constexpr bool trapsOnZero(Opcode Op) {
  return Op == Opcode::IDiv || Op == Opcode::IRem;
}

/// Binary operator \p Op on (lhs \p L, rhs \p R): 64-bit two's-complement
/// wrap-around, INT64_MIN / -1 == INT64_MIN and INT64_MIN % -1 == 0, and
/// shift counts masked to 63. The caller traps instead when
/// trapsOnZero(Op) and R == 0.
constexpr int64_t evalBinop(Opcode Op, int64_t L, int64_t R) {
  uint64_t UL = static_cast<uint64_t>(L), UR = static_cast<uint64_t>(R);
  switch (Op) {
  case Opcode::IAdd:
    return static_cast<int64_t>(UL + UR);
  case Opcode::ISub:
    return static_cast<int64_t>(UL - UR);
  case Opcode::IMul:
    return static_cast<int64_t>(UL * UR);
  case Opcode::IDiv:
    return L == INT64_MIN && R == -1 ? INT64_MIN : L / R;
  case Opcode::IRem:
    return L == INT64_MIN && R == -1 ? 0 : L % R;
  case Opcode::IAnd:
    return L & R;
  case Opcode::IOr:
    return L | R;
  case Opcode::IXor:
    return L ^ R;
  case Opcode::IShl:
    return static_cast<int64_t>(UL << (UR & 63));
  case Opcode::IShr:
    return L >> (UR & 63);
  default:
    return 0; // Not a binop.
  }
}

/// ineg, wrapping (-INT64_MIN == INT64_MIN).
constexpr int64_t evalNeg(int64_t V) {
  return static_cast<int64_t>(-static_cast<uint64_t>(V));
}

/// Whether branch \p Op is taken. A unary condition tests its popped
/// value \p L against zero (pass \p R = 0); a binary compare tests lhs
/// \p L against rhs \p R; goto is always taken.
constexpr bool branchTaken(Opcode Op, int64_t L, int64_t R) {
  switch (Op) {
  case Opcode::Goto:
    return true;
  case Opcode::IfEq:
  case Opcode::IfICmpEq:
    return L == R;
  case Opcode::IfNe:
  case Opcode::IfICmpNe:
    return L != R;
  case Opcode::IfLt:
  case Opcode::IfICmpLt:
    return L < R;
  case Opcode::IfLe:
    return L <= R;
  case Opcode::IfGt:
    return L > R;
  case Opcode::IfGe:
  case Opcode::IfICmpGe:
    return L >= R;
  default:
    return false; // Not a branch.
  }
}

} // namespace cbs::bc

#endif // CBSVM_BYTECODE_OPCODE_H
