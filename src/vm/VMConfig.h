//===- vm/VMConfig.h - Virtual machine configuration ------------*- C++ -*-===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// All knobs of a VM run. A run is a pure function of
/// (program, VMConfig): the config carries the personality (which of
/// the paper's two implementations is being modelled), the profiler and
/// its parameters, and the seed. What each modelled event costs is the
/// fixed table in vm/CostModel.h, not a setting.
///
//===----------------------------------------------------------------------===//

#ifndef CBSVM_VM_VMCONFIG_H
#define CBSVM_VM_VMCONFIG_H

#include "profiling/CounterBasedSampler.h"
#include "profiling/QualityMonitor.h"
#include "support/ArgParser.h"
#include "vm/CompiledMethod.h"

#include <cstdint>
#include <functional>

namespace cbs::bc {
class Program;
}

namespace cbs::tel {
class FlightRecorder;
class TraceSink;
}

namespace cbs::vm {

/// Which of the paper's two VM implementations to model (§5).
enum class Personality : uint8_t {
  /// Jikes RVM: 3-state yieldpoint word; prologue *and* epilogue
  /// yieldpoints are invocation events; backedge yieldpoints service
  /// ticks but never yield call edges.
  JikesRVM,
  /// J9: overloaded method-entry check; entries are the only invocation
  /// events; backedges service switch/GC requests.
  J9,
};

enum class ProfilerKind : uint8_t {
  None,         ///< no DCG construction (the overhead baseline)
  Exhaustive,   ///< record every call edge (the perfect profile, §6.2)
  Timer,        ///< timer-based sampling: the Jikes RVM base (§3.3)
  CBS,          ///< counter-based sampling: the paper's technique (§4)
  CodePatching, ///< Suganuma-style prologue listeners (§3.2)
};

struct ProfilerOptions {
  ProfilerKind Kind = ProfilerKind::None;
  prof::CBSParams CBS;
  /// Code-patching promotion trigger: a method is "optimized" (and thus
  /// instrumented) after this many invocations, standing in for the IBM
  /// DK's recompilation threshold in JIT-only accuracy runs.
  uint64_t PromoteAfterInvocations = 1000;
  /// Charge cost::ExhaustiveCounter per call in Exhaustive mode.
  bool ChargeExhaustiveCounters = true;

  /// §8 generalization: also run a CounterBasedSampler over
  /// *allocation* events, building a per-class allocation histogram
  /// (see profiling/AllocationProfile.h). Works alongside any DCG
  /// profiler kind; the armed check overloads the allocator's existing
  /// heap-frontier test.
  bool ProfileAllocations = false;
  /// Window geometry for the allocation sampler.
  prof::CBSParams AllocCBS;

  /// Exponentially decay the profile repository every this many timer
  /// ticks (0 = never). Jikes RVM's organizers decay sample data so the
  /// DCG tracks recent behaviour across phase changes.
  uint32_t DecayEveryTicks = 0;
  /// Multiplier applied at each decay, in (0, 1).
  double DecayFactor = 0.8;

  /// Capacity of each thread's SampleBuffer: raw samples are appended
  /// cheaply and flushed into the repository as one batch (one map
  /// update pass and one epoch bump per batch, not per sample).
  size_t SampleBufferCapacity = 256;

  /// Self-observability: the online convergence/churn monitor
  /// (Quality.EveryTicks != 0 enables it). Works best with profile
  /// decay on — a cumulative repository's history masks phase shifts.
  prof::QualityMonitorParams Quality;
};

struct VMConfig {
  Personality Pers = Personality::JikesRVM;
  ProfilerOptions Profiler;

  /// Virtual timer period. The default of 200k cycles is the calibrated
  /// analogue of the 10 ms tick on the paper's 2.8 GHz hardware (see
  /// EXPERIMENTS.md).
  uint64_t TimerPeriodCycles = 200'000;

  /// Seeded jitter applied to each tick, as a percentage of the period.
  /// A perfectly periodic virtual timer can resonate with a loop whose
  /// body is a divisor of the period — every tick then lands on the
  /// same instruction, an artifact impossible on real hardware, where
  /// timer interrupts drift freely against the instruction stream.
  /// Jitter is drawn from the run's seeded RNG, so runs remain exactly
  /// reproducible. Set to 0 for a strictly periodic timer.
  double TimerJitterPct = 3.0;

  /// Hard stop (state CycleLimit) — a safety net for tests.
  uint64_t MaxCycles = UINT64_MAX;

  /// A GC service request is raised every this many allocated bytes.
  uint64_t GCThresholdBytes = 1u << 18;

  /// Optimization level used for lazy first-touch compilation ("JIT
  /// only" mode of §6.2 compiles every method at the same level).
  int JITLevel = 0;

  /// Ablation (§4): model a VM without an overloadable prologue check by
  /// charging cost::ExplicitEntryCheck on every method entry.
  bool ExplicitEntryCheck = false;

  /// On-stack replacement at taken backedge yieldpoints: a frame whose
  /// method has a different active version transfers to it at the next
  /// loop header both versions kept (promotion OSR), and a
  /// Frame::Deopted frame transfers to a fresh baseline instead of
  /// limping on its pinned invalidated code (deopt OSR). Each transfer
  /// charges cost::OsrCost. Off by default: the no-OSR trajectory
  /// is byte-identical to previous releases, matching the paper's VMs,
  /// which never replace already-active frames. All OSR decisions
  /// happen on the VM thread in virtual time, so runs stay
  /// byte-identical at any --compile-jobs count.
  bool EnableOSR = false;

  uint64_t Seed = 1;

  /// Optional structured-event tracer (non-owning; must outlive the
  /// VM). Null by default: with no sink installed every emission site
  /// reduces to a single pointer test on an already-slow path, which
  /// preserves the paper's free-when-disarmed property. The sink is an
  /// observer — installing one must not change what the run computes.
  tel::TraceSink *Trace = nullptr;

  /// Optional flight recorder (non-owning; must outlive the VM). The
  /// recorder receives the quality monitor's rolling window notes plus
  /// the anomaly events (phase_shift / sample_drop / trap) even when a
  /// different Trace sink is installed; when Trace is null the VM
  /// installs the recorder as its trace sink so it also retains the
  /// regular event stream. Like Trace, a pure observer.
  tel::FlightRecorder *Recorder = nullptr;

  /// Optional compile pipeline (trivial inlining, the optimizer, an
  /// inline plan); when unset the VM installs straight baseline
  /// translations. Receives (program, method, level).
  std::function<CompiledMethod(const bc::Program &, bc::MethodId, int)>
      CompileHook;

  /// The validated builder every command-line surface shares: parses
  /// the common VM options (--personality, --seed, --profiler and its
  /// per-kind knobs, --buffer-capacity, --decay-ticks,
  /// --decay-factor, --osr) from \p Args, resolving the profiler through
  /// prof::ProfilerRegistry. Invalid combinations are a single
  /// diagnostic here rather than a divergent per-caller check — e.g. a
  /// sampling-only knob (--stride, --samples, --buffer-capacity) with a
  /// profiler the registry marks non-sampling fails with
  ///   "<opt> requires a sampling profiler (--profiler <name> does not
  ///    sample)".
  /// Errors route through the parser's error handler.
  static VMConfig fromArgs(support::ArgParser &Args);
};

} // namespace cbs::vm

#endif // CBSVM_VM_VMCONFIG_H
