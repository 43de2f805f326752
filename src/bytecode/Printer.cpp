//===- bytecode/Printer.cpp - Disassembler --------------------------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//

#include "bytecode/Printer.h"

#include <sstream>

using namespace cbs;
using namespace cbs::bc;

std::string bc::printInstruction(const Program &P, const Instruction &I) {
  std::ostringstream OS;
  OS << opcodeName(I.Op);
  switch (operandKind(I.Op)) {
  case OperandKind::None:
    break;
  case OperandKind::Imm:
  case OperandKind::Slot:
  case OperandKind::Field:
  case OperandKind::Cycles:
    OS << ' ' << I.A;
    break;
  case OperandKind::SlotImm:
    OS << ' ' << I.A << ' ' << I.B;
    break;
  case OperandKind::Target:
    OS << " -> " << I.A;
    break;
  case OperandKind::Class:
    OS << ' ' << P.hierarchy().classOf(static_cast<ClassId>(I.A)).Name;
    break;
  case OperandKind::Method:
    OS << ' ' << P.qualifiedName(static_cast<MethodId>(I.A));
    break;
  case OperandKind::Selector:
    OS << ' ' << P.hierarchy().selectorName(static_cast<SelectorId>(I.A))
       << "/" << I.B;
    break;
  }
  if (isCall(I.Op))
    OS << " (site " << I.Site << ')';
  return OS.str();
}

std::string bc::printCode(const Program &P, MethodId Id,
                          const std::vector<Instruction> &Code) {
  std::ostringstream OS;
  OS << P.qualifiedName(Id) << ":\n";
  for (size_t PC = 0, E = Code.size(); PC != E; ++PC)
    OS << "  " << PC << ": " << printInstruction(P, Code[PC]) << '\n';
  return OS.str();
}

std::string bc::printMethod(const Program &P, MethodId Id) {
  const Method &M = P.method(Id);
  std::ostringstream OS;
  OS << (M.isVirtual() ? "virtual " : "static ") << P.qualifiedName(Id) << '/'
     << M.numArgs() << " locals=" << M.NumLocals
     << " size=" << M.sizeBytes() << "B\n";
  OS << printCode(P, Id, M.Code);
  return OS.str();
}

std::string bc::printProgram(const Program &P) {
  std::ostringstream OS;
  OS << "program: " << P.numMethods() << " methods, "
     << P.hierarchy().numClasses() << " classes, " << P.numSites()
     << " call sites, " << P.totalSizeBytes() << " bytecode bytes\n";
  for (size_t I = 0, E = P.numMethods(); I != E; ++I)
    OS << printMethod(P, static_cast<MethodId>(I));
  return OS.str();
}
