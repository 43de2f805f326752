//===- experiments/Run.h - One wired run ------------------------*- C++ -*-===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one wiring of a VM run. A RunSpec names the program, the VM
/// configuration and, optionally, the adaptive optimization system
/// (AOS) with its inline oracle; a Run builds them and attaches the AOS
/// as the VM's client. Every experiment, fuzz oracle, adaptive bench arm
/// and the cbsvm driver (RunDriver.h) builds its VM here.
///
/// Lifetime rule: the VM calls into its client, so the AOS must outlive
/// the VM, and the program and the oracle must outlive both. Run
/// declares the AOS before the VM, so the VM is destroyed first; the
/// program and the oracle belong to the caller.
///
//===----------------------------------------------------------------------===//

#ifndef CBSVM_EXPERIMENTS_RUN_H
#define CBSVM_EXPERIMENTS_RUN_H

#include "aos/AdaptiveSystem.h"
#include "opt/InlineOracle.h"
#include "vm/VirtualMachine.h"

#include <optional>
#include <string_view>

namespace cbs::exp {

/// The process-wide NewJikes oracle. plan() is const, so every run and
/// thread may share it.
const opt::InlineOracle &newJikesOracle();

struct RunSpec {
  const bc::Program *P = nullptr;
  vm::VMConfig Config{};
  /// Set: attach the adaptive system with this configuration.
  std::optional<aos::AOSConfig> AOS{};
  /// The AOS's inline oracle; null = trivial plans only.
  const opt::InlineOracle *Oracle = &newJikesOracle();
};

class Run {
public:
  explicit Run(RunSpec Spec);

  /// Runs until the program ends or \p Budget more cycles elapse.
  vm::RunState run(uint64_t Budget = UINT64_MAX) { return VM.run(Budget); }
  /// run(), with a trap fatal: reports "<What> trapped: <message>".
  vm::RunState runToEnd(std::string_view What, uint64_t Budget = UINT64_MAX);

  vm::VirtualMachine &vm() { return VM; }
  /// Null unless the spec set AOS.
  const aos::AdaptiveSystem *adaptive() const {
    return Adaptive ? &*Adaptive : nullptr;
  }

private:
  std::optional<aos::AdaptiveSystem> Adaptive;
  vm::VirtualMachine VM;
};

} // namespace cbs::exp

#endif // CBSVM_EXPERIMENTS_RUN_H
