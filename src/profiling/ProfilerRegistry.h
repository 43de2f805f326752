//===- profiling/ProfilerRegistry.h - Named profiler factory ----*- C++ -*-===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single place that knows which profilers exist and how each one
/// is configured. Every surface that used to carry its own
/// name-to-kind chain — the cbsvm driver, the experiment harness, the
/// differential-fuzz oracles, the benches — resolves profilers here
/// instead, so adding a profiler is one table entry, not a sweep over
/// every switch in the tree.
///
/// A descriptor configures vm::ProfilerOptions for its profiler,
/// including kind-specific policy: "exhaustive" disables the modelled
/// per-call counter charge (it is the free reference profile every
/// accuracy comparison scores against; the *charged* instrumented-VM
/// variant is an explicit ablation, opted into by flipping
/// ChargeExhaustiveCounters back on).
///
/// Header-only dependency on the vm layer: descriptors write plain
/// fields of vm::ProfilerOptions, so cbs_profiling needs no link
/// dependency on cbs_vm.
///
//===----------------------------------------------------------------------===//

#ifndef CBSVM_PROFILING_PROFILERREGISTRY_H
#define CBSVM_PROFILING_PROFILERREGISTRY_H

#include "vm/VMConfig.h"

#include <string>
#include <string_view>
#include <vector>

namespace cbs::prof {

struct ProfilerDescriptor {
  /// The stable CLI/config name ("cbs", "timer", ...).
  const char *Name;
  vm::ProfilerKind Kind;
  /// One-line human description (--list-profilers).
  const char *Summary;
  /// True when the profiler is driven by the sampling machinery, i.e.
  /// the stride / samples-per-tick / sample-buffer knobs apply to it.
  bool Sampling;
  /// Applies the kind and its kind-specific defaults to \p Options.
  /// Never touches knobs shared across kinds (stride, buffer, decay...):
  /// callers layer those on top.
  void (*Configure)(vm::ProfilerOptions &Options);
};

class ProfilerRegistry {
public:
  /// The process-wide table (immutable, construction is cheap).
  static const ProfilerRegistry &instance();

  /// Descriptor for \p Name, or nullptr when unknown.
  const ProfilerDescriptor *find(std::string_view Name) const;
  /// Descriptor for \p Kind (the reverse mapping; every kind has
  /// exactly one entry), or nullptr.
  const ProfilerDescriptor *find(vm::ProfilerKind Kind) const;

  /// All descriptors in stable presentation order.
  const std::vector<ProfilerDescriptor> &all() const { return Table; }

  /// Configures \p Options for profiler \p Name. Returns false (leaving
  /// \p Options untouched) when the name is unknown.
  bool configure(std::string_view Name, vm::ProfilerOptions &Options) const;

  /// "none, exhaustive, timer, cbs, patching" — for diagnostics.
  std::string names() const;

private:
  ProfilerRegistry();
  std::vector<ProfilerDescriptor> Table;
};

} // namespace cbs::prof

#endif // CBSVM_PROFILING_PROFILERREGISTRY_H
