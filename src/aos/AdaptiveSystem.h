//===- aos/AdaptiveSystem.h - Adaptive optimization -------------*- C++ -*-===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The adaptive optimization system (Arnold et al.'s Jikes RVM AOS,
/// simplified): timer-tick samples identify hot methods; methods whose
/// sample counts cross level thresholds are recompiled at higher
/// optimization levels with an inline plan computed by the configured
/// oracle from the *current* dynamic call graph. This is the client
/// that turns profile accuracy into performance (§6.3): a profiler that
/// converges faster hands the oracle a better DCG at recompilation
/// time.
///
/// The controller implements a simplified cost-benefit rule: a method
/// is promoted when its estimated remaining execution time (sample
/// count × timer period, assuming the program keeps behaving as
/// observed) exceeds the modelled compile cost at the next level by a
/// configurable factor.
///
/// Compilation is asynchronous, as in the paper's VMs (§6): a promotion
/// decision enqueues a CompileRequest carrying the plan snapshot it was
/// made against and a modelled compile latency; the compiled code
/// installs at the first taken yieldpoint whose virtual cycle count
/// passes enqueue + latency. Because the plan is `latency` cycles stale
/// by then, the install point re-validates it — a request whose plan
/// generation has been superseded (or whose enqueue-time profile the
/// quality monitor has since declared a different phase) is dropped and
/// re-enqueued against the fresh plan, up to MaxReenqueues times.
/// Every compile goes through a support::WorkerPool: `--compile-jobs N`
/// gives it N threads that compile ahead of the install point, 0 defers
/// each compile to the install point on the VM thread. Installs stay
/// pinned to the same virtual-time points, so runs are byte-identical
/// at any job count.
///
//===----------------------------------------------------------------------===//

#ifndef CBSVM_AOS_ADAPTIVESYSTEM_H
#define CBSVM_AOS_ADAPTIVESYSTEM_H

#include "aos/CompileQueue.h"
#include "aos/DeoptController.h"
#include "opt/Compiler.h"
#include "opt/InlineOracle.h"
#include "profiling/DCGSnapshot.h"
#include "support/ArgParser.h"
#include "support/WorkerPool.h"
#include "vm/VirtualMachine.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace cbs::aos {

struct AOSConfig {
  /// Tick samples a method needs before promotion to level 1 / 2.
  uint32_t Level1Samples = 2;
  uint32_t Level2Samples = 8;
  /// Benefit factor: promote only when estimated remaining cycles in
  /// the method exceed Factor × compile cost of the next level.
  double CostBenefitFactor = 1.0;
  /// Recompute the inline plan at most every this many ticks (plans
  /// are whole-program and moderately expensive to build).
  uint32_t PlanRefreshTicks = 4;
  /// Bound on same-level reoptimizations per method.
  uint32_t MaxReoptsPerMethod = 2;
  /// Threads of the compile pool. 0 compiles at the install point on
  /// the VM thread; N >= 1 pre-computes results on N workers, started
  /// with the first compiles. Either way installs happen at the same
  /// virtual-time points and runs are byte-identical.
  uint32_t CompileJobs = 0;
  /// Scales the modelled *latency* of a background compilation: a
  /// request enqueued at cycle E may install no earlier than
  /// E + Scale × cost::CompileCostPerByte[level] × sizeBytes. 0 means
  /// compiles install at the first taken yieldpoint after the
  /// decision; larger values model a slower (or more contended)
  /// compile thread consuming an ever-staler plan.
  double CompileLatencyScale = 1.0;
  /// Speculation-guard policing (off by default — enabling it changes
  /// when plans are snapshotted, so it is a distinct configuration).
  DeoptConfig Deopt;

  /// Warm start from a persisted cross-run profile (ProfileRepository).
  struct WarmStartConfig {
    /// The persisted profile to warm-start from; null = cold start
    /// (byte-identical to previous releases). Callers must only set
    /// this after the repository verified the program hash and
    /// personality.
    std::shared_ptr<const prof::DCGSnapshot> Profile;
  };
  WarmStartConfig WarmStart;
};

struct AOSStats {
  uint64_t Ticks = 0;
  /// Installed recompilations (counted at install, not at decision).
  uint64_t Recompilations = 0;
  uint64_t PlansComputed = 0;
  uint64_t PromotionsToL1 = 0;
  uint64_t PromotionsToL2 = 0;
  uint64_t Reoptimizations = 0;
  /// Plans rebuilt early because the quality monitor flagged a phase
  /// shift (the profile no longer described the program the plan was
  /// built for).
  uint64_t PhaseShiftReplans = 0;
  // Compile-queue traffic.
  uint64_t QueueEnqueued = 0;  ///< requests admitted as new entries
  uint64_t QueueInstalls = 0;  ///< requests that reached installCompiled
  uint64_t QueueStaleDrops = 0; ///< installs dropped stale + re-enqueued
  uint64_t QueueCoalesced = 0; ///< requests merged into a pending entry
  uint64_t QueueDropped = 0;   ///< evicted by or rejected at a full queue
  /// Virtual cycle of the first install (0 until one happens): the
  /// time-to-first-optimized-code figure warm starts exist to lower.
  uint64_t FirstInstallCycle = 0;
  // Warm start (all 0 on a cold run).
  uint64_t WarmEnqueued = 0; ///< startup pre-enqueues from the repository
  uint64_t WarmInstalls = 0; ///< warm requests that reached install
};

/// Attach with VirtualMachine::setClient; outside tests and the perf
/// ledger, exp::Run (experiments/Run.h) is the one place that does.
/// \p Oracle must outlive the system and may be null (no profile-directed inlining: methods are
/// recompiled with the trivial plan only).
class AdaptiveSystem : public vm::VMClient {
public:
  AdaptiveSystem(const opt::InlineOracle *Oracle, AOSConfig Config = {});
  ~AdaptiveSystem() override;

  void onStartup(vm::VirtualMachine &VM) override;
  void onTimerTick(vm::VirtualMachine &VM, bc::MethodId Top) override;
  void onYieldpoint(vm::VirtualMachine &VM) override;

  const AOSStats &stats() const { return Stats; }
  /// True when this run was configured with a persisted warm-start
  /// profile (the report's warm subsection is emitted only then).
  bool warmStarted() const { return Config.WarmStart.Profile != nullptr; }
  /// Requests still pending (enqueued but never ready before the run
  /// ended, mirroring compilations a real VM abandons at exit).
  size_t queueDepth() const { return Queue.depth(); }
  /// The guard-policing controller (null unless AOSConfig::Deopt is
  /// enabled).
  const DeoptController *deoptController() const { return DeoptCtl.get(); }

private:
  /// Returns true when it enqueued or upgraded a request (the tick
  /// loop's progress signal).
  bool maybePromote(vm::VirtualMachine &VM, bc::MethodId Method);
  std::shared_ptr<const opt::InlinePlan>
  currentPlan(vm::VirtualMachine &VM);
  /// Installs \p Fresh as the current plan: stamps generation and
  /// profile epoch, bumps the counters, and traces its non-trivial
  /// decisions. Shared by the tick-path rebuild (currentPlan) and the
  /// startup warm plan.
  void adoptPlan(vm::VirtualMachine &VM, opt::InlinePlan Fresh,
                 uint64_t ProfileEpoch);
  /// Modelled background-compile latency for \p Method at \p Level.
  uint64_t compileLatency(vm::VirtualMachine &VM, bc::MethodId Method,
                          int Level) const;
  /// The one request builder: stamps \p R as decided now against
  /// \p RequestPlan (plan generation, phase shifts seen, enqueue and
  /// ready cycles), submits its compile to the pool, admits it to the
  /// queue and does the metric/event bookkeeping.
  void submitRequest(vm::VirtualMachine &VM, CompileRequest R,
                     std::shared_ptr<const opt::InlinePlan> RequestPlan);
  void install(vm::VirtualMachine &VM, CompileRequest R);
  /// Executes the queue-side consequences of controller decisions:
  /// drops the method's in-flight requests and enqueues the recompile
  /// (conservative no-speculation plan when the decision pinned it).
  void applyDeoptDecisions(vm::VirtualMachine &VM,
                           const std::vector<DeoptDecision> &Decisions);
  /// The cached no-speculation plan pinned methods compile against.
  std::shared_ptr<const opt::InlinePlan>
  conservativePlan(vm::VirtualMachine &VM);
  /// Mirrors AOSStats and DeoptStats into the VM's metric registry:
  /// one "aos.*" gauge per CBSVM_AOS_GAUGES row.
  void publishMetrics(vm::VirtualMachine &VM);

  /// The configured oracle, or the trivial one when none was given.
  const opt::InlineOracle &Oracle;
  AOSConfig Config;
  AOSStats Stats;

  /// The current whole-program inline plan, shared as an immutable
  /// snapshot with every in-flight CompileRequest (and its compile
  /// job). Rebuilt in place-of-pointer: old requests keep the
  /// generation they were decided against.
  std::shared_ptr<const opt::InlinePlan> Plan;
  uint64_t PlanAgeTicks = 0;
  uint64_t PlanGeneration = 0;
  /// Quality-monitor phase shifts already acted upon.
  uint64_t SeenPhaseShifts = 0;
  /// Monitor overlap (basis points) when the current plan was built;
  /// 10000 when no monitor is installed.
  uint64_t PlanOverlapBp = 10'000;

  CompileQueue Queue;
  /// Its workers start with the first compiles. Its jobs read the
  /// program, which outlives the AOS (exp::Run).
  support::WorkerPool Pool;
  std::unique_ptr<DeoptController> DeoptCtl;
  std::shared_ptr<const opt::InlinePlan> ConservativePlan;

  struct MethodState {
    uint64_t CompiledGeneration = 0;
    uint32_t Reopts = 0;
  };
  std::vector<MethodState> PerMethod;
};

/// The cbsvm AOS option group: --aos, --compile-jobs,
/// --compile-latency-scale, --deopt-threshold, --max-deopts. Options
/// that only make sense with the adaptive system imply it, so
/// "--compile-jobs 4" alone does the expected thing.
class AOSOptionGroup {
public:
  /// --aos, or any option above that implies it, or \p VMC's
  /// EnableOSR (--osr, parsed by VMConfig::fromArgs).
  bool UseAOS = false;
  AOSConfig Config;

  void parse(support::ArgParser &Args, const vm::VMConfig &VMC);
};

} // namespace cbs::aos

#endif // CBSVM_AOS_ADAPTIVESYSTEM_H
