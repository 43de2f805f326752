//===- aos/DeoptController.h - Speculation guard policing -------*- C++ -*-===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Polices the speculation guards recorded by guarded inlining. Every
/// AOS-installed version that speculated (CompiledMethod::Guards is
/// non-empty) assumed some callee stays dominant at each guarded site;
/// the controller re-checks those assumptions against the *current*
/// DCG snapshot at quality-monitor tick boundaries and right after an
/// install. When an assumption no longer holds — the assumed callee
/// lost dominance, or the quality monitor declared a phase shift after
/// the profile the plan was built from — the method is deoptimized:
///
///  - its active version is invalidated in the code cache (frames
///    pinning it fall back to baseline speed at their next taken
///    yieldpoint, and with VMConfig::EnableOSR transfer off the dead
///    code entirely at their next loop-header backedge — see
///    VirtualMachine::deoptimize);
///  - in-flight compile requests for it are dropped (their plan
///    snapshot embeds the same dead assumption);
///  - a recompile against the fresh plan is enqueued through the normal
///    background pipeline.
///
/// Deopt storms are bounded: a method deoptimized MaxDeoptsPerMethod
/// times is *pinned* — recompiled once against the no-speculation
/// trivial plan and excluded from further speculative promotion. The
/// evidence gate (MinSiteWeight) keeps thinly-profiled sites from
/// flapping: a guard is only policed once the current snapshot has
/// enough weight at its site to contradict it with confidence.
///
/// The controller makes decisions; the AdaptiveSystem executes the
/// queue-side consequences (drop + re-enqueue) because it owns the
/// compile pipeline. Everything runs on the VM thread in virtual time,
/// so runs stay byte-identical at any --compile-jobs.
///
//===----------------------------------------------------------------------===//

#ifndef CBSVM_AOS_DEOPTCONTROLLER_H
#define CBSVM_AOS_DEOPTCONTROLLER_H

#include "bytecode/Ids.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cbs::prof {
class DCGSnapshot;
class ProfileQualityMonitor;
}

namespace cbs::vm {
class VirtualMachine;
struct CompiledMethod;
}

namespace cbs::aos {

struct DeoptConfig {
  /// Master switch. Off by default: plain --aos runs keep their exact
  /// pre-deopt behaviour (no extra snapshots, no invalidations).
  bool Enabled = false;
  /// A guarded site's assumed callee must keep at least this share of
  /// the site's current profile weight, or the guard fails.
  double DominanceThresholdPct = 40.0;
  /// Deopts after which a method is pinned to the conservative
  /// no-speculation plan.
  uint32_t MaxDeoptsPerMethod = 3;
  /// Guards at sites with less current profile weight than this are not
  /// policed (too little evidence to call the assumption dead).
  uint64_t MinSiteWeight = 16;
  /// Testing hook: invalidate every tracked AOS install at every taken
  /// yieldpoint, regardless of guards, thresholds, or the per-method
  /// cap — the forced-invalidation storm the differential fuzzer uses
  /// to prove deopt never changes program semantics.
  bool ForceStormForTesting = false;
};

struct DeoptStats {
  uint64_t GuardChecks = 0;      ///< guarded versions examined
  uint64_t GuardFailures = 0;    ///< guards whose assumption died
  uint64_t Deopts = 0;           ///< invalidations performed
  uint64_t PhaseShiftDeopts = 0; ///< ...of which due to a phase shift
  uint64_t ConservativePins = 0; ///< methods pinned past the deopt cap
  uint64_t StaleRequestsDropped = 0; ///< queued compiles dropped at deopt
  uint64_t Recompiles = 0; ///< fresh-plan recompiles enqueued after deopts
};

/// What the AdaptiveSystem must do after the controller deoptimized a
/// method: re-enqueue a compile at \p Level, conservatively (pinned,
/// no-speculation plan) or against the current plan.
struct DeoptDecision {
  bc::MethodId Method = bc::InvalidMethodId;
  int Level = 0;
  bool Conservative = false;
};

class DeoptController {
public:
  explicit DeoptController(DeoptConfig Config) : Config(Config) {}

  /// Registers an AOS install for policing. Versions with guards are
  /// always tracked; guard-free versions only under ForceStormForTesting
  /// (the storm invalidates everything the AOS ever installed).
  void noteInstall(const vm::CompiledMethod &CM);

  /// Full policing pass over every tracked version (tick boundary).
  /// Invalidates failing methods in the VM and returns the recompiles
  /// the AdaptiveSystem must enqueue.
  std::vector<DeoptDecision> police(vm::VirtualMachine &VM);

  /// Polices a single just-installed method ("on compile_install"): the
  /// compile ran against a snapshot at least one latency old, so its
  /// speculation can be dead on arrival. No-op under ForceStormForTesting
  /// (the storm path invalidates at yieldpoints instead; checking here
  /// would re-invalidate installs within the install loop).
  std::vector<DeoptDecision> policeInstall(vm::VirtualMachine &VM,
                                           bc::MethodId Method);

  /// The storm pass (yieldpoint boundary, ForceStormForTesting only):
  /// invalidates every tracked version unconditionally.
  std::vector<DeoptDecision> storm(vm::VirtualMachine &VM);

  /// True when \p Method hit MaxDeoptsPerMethod and is pinned to the
  /// conservative plan: the AOS must not re-speculate it.
  bool isPinned(bc::MethodId Method) const {
    return Method < States.size() && States[Method].Pinned;
  }

  const DeoptConfig &config() const { return Config; }
  const DeoptStats &stats() const { return Stats; }
  DeoptStats &stats() { return Stats; }

private:
  struct MethodState {
    bool Tracked = false;
    bool Pinned = false;
    uint32_t DeoptCount = 0;
  };

  /// Checks one tracked method's guards against \p Snapshot (and the
  /// monitor's phase-shift count), deoptimizing it on failure.
  void checkOne(vm::VirtualMachine &VM, const prof::DCGSnapshot &Snapshot,
                const prof::ProfileQualityMonitor *Monitor, bc::MethodId M,
                std::vector<DeoptDecision> &Out);

  /// Invalidates \p Method in \p VM, advances its deopt count, decides
  /// conservative pinning, and appends the recompile decision.
  void deoptimize(vm::VirtualMachine &VM, bc::MethodId Method,
                  bool PhaseShift, std::vector<DeoptDecision> &Out);

  void ensureSize(size_t NumMethods);

  DeoptConfig Config;
  DeoptStats Stats;
  std::vector<MethodState> States;
  std::vector<bc::MethodId> Tracked; ///< insertion-ordered, deterministic
};

} // namespace cbs::aos

#endif // CBSVM_AOS_DEOPTCONTROLLER_H
