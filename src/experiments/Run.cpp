//===- experiments/Run.cpp - One wired run --------------------------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//

#include "experiments/Run.h"

#include "support/ErrorHandling.h"

#include <string>

using namespace cbs;

const opt::InlineOracle &exp::newJikesOracle() {
  static const opt::NewJikesOracle Oracle;
  return Oracle;
}

exp::Run::Run(RunSpec Spec) : VM(*Spec.P, std::move(Spec.Config)) {
  if (Spec.AOS) {
    Adaptive.emplace(Spec.Oracle, std::move(*Spec.AOS));
    VM.setClient(&*Adaptive);
  }
}

vm::RunState exp::Run::runToEnd(std::string_view What, uint64_t Budget) {
  vm::RunState State = VM.run(Budget);
  if (State == vm::RunState::Trapped)
    reportFatalError(std::string(What) + " trapped: " + VM.trapMessage());
  return State;
}
