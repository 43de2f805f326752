//===- bytecode/Instruction.h - Instruction encoding ------------*- C++ -*-===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fixed-width instruction encoding. Operand meaning depends on the
/// opcode (see Opcode.h); `Site` is the program-unique call site id and
/// is nonzero-valid only on call instructions.
///
//===----------------------------------------------------------------------===//

#ifndef CBSVM_BYTECODE_INSTRUCTION_H
#define CBSVM_BYTECODE_INSTRUCTION_H

#include "bytecode/Ids.h"
#include "bytecode/Opcode.h"

namespace cbs::bc {

struct Instruction {
  Opcode Op = Opcode::Nop;
  int32_t A = 0;
  int32_t B = 0;
  SiteId Site = InvalidSiteId;

  Instruction() = default;
  Instruction(Opcode Op, int32_t A = 0, int32_t B = 0,
              SiteId Site = InvalidSiteId)
      : Op(Op), A(A), B(B), Site(Site) {}
};

/// Base (unscaled) virtual-cycle cost of executing \p I: its opcode's
/// table cycles, or its operand for `work`.
inline uint32_t instructionCycles(const Instruction &I) {
  return I.Op == Opcode::Work ? static_cast<uint32_t>(I.A)
                              : opcodeInfo(I.Op).Cycles;
}

} // namespace cbs::bc

#endif // CBSVM_BYTECODE_INSTRUCTION_H
