//===- vm/VirtualMachine.h - The virtual machine ----------------*- C++ -*-===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The virtual machine: a deterministic interpreter with green threads,
/// a virtual-cycle timer, yieldpoints / method-entry checks in both of
/// the paper's VM personalities, and the full profiler suite wired into
/// the runtime services. A VM run is a pure function of
/// (program, VMConfig).
///
/// Typical use:
/// \code
///   vm::VMConfig Config;
///   Config.Profiler.Kind = vm::ProfilerKind::CBS;
///   Config.Profiler.CBS = {/*Stride=*/3, /*SamplesPerTick=*/32};
///   vm::VirtualMachine VM(Program, Config);
///   VM.run();
///   prof::DCGSnapshot DCG = VM.profile();
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef CBSVM_VM_VIRTUALMACHINE_H
#define CBSVM_VM_VIRTUALMACHINE_H

#include "bytecode/Program.h"
#include "profiling/AllocationProfile.h"
#include "profiling/CodePatchingProfiler.h"
#include "profiling/DynamicCallGraph.h"
#include "profiling/SampleBuffer.h"
#include "telemetry/MetricRegistry.h"
#include "vm/CodeCache.h"
#include "vm/Heap.h"
#include "vm/Thread.h"
#include "vm/VMConfig.h"
#include "vm/VMStats.h"

#include <memory>
#include <string>

namespace cbs::tel {
class FlightRecorder;
class TraceSink;
struct TraceEvent;
}

namespace cbs::vm {

class VirtualMachine;

/// Observer interface for adaptive optimization systems: the VM calls it
/// once per timer tick with the AOS hotness sample, and once per taken
/// yieldpoint (the deterministic virtual-time points where background
/// compilations are allowed to install). The client may recompile
/// methods via installCompiled from either hook.
class VMClient {
public:
  virtual ~VMClient();
  /// Called once, at the start of the first run() call, before any
  /// instruction executes (virtual cycle 0). The warm-start hook: a
  /// client holding a persisted profile can pre-enqueue compilations
  /// here so optimized code is in flight before the sampler has seen a
  /// single tick.
  virtual void onStartup(VirtualMachine &VM) { (void)VM; }
  virtual void onTimerTick(VirtualMachine &VM, bc::MethodId TopMethod) = 0;
  /// Called at every taken yieldpoint, before tick/GC servicing. Timer
  /// ticks force the next yieldpoint to be taken, so with any profiler
  /// configuration this fires at least about once per timer period.
  virtual void onYieldpoint(VirtualMachine &VM) { (void)VM; }
};

class VirtualMachine {
public:
  /// \p P must outlive the VM and should have passed verifyProgram.
  VirtualMachine(const bc::Program &P, VMConfig Config);
  ~VirtualMachine();

  VirtualMachine(const VirtualMachine &) = delete;
  VirtualMachine &operator=(const VirtualMachine &) = delete;

  /// Executes until the program finishes, traps, halts, hits
  /// VMConfig::MaxCycles, or \p CycleBudget more cycles have elapsed
  /// (in which case the run is resumable).
  RunState run(uint64_t CycleBudget = UINT64_MAX);

  RunState state() const { return State; }
  /// The VM's counters and gauges: the storage the interpreter updates,
  /// so the reference stays live across further execution.
  const VMStats &stats() const { return Stats; }
  const std::vector<int64_t> &output() const { return Output; }
  const std::string &trapMessage() const { return TrapMsg; }
  const bc::Program &program() const { return P; }
  const VMConfig &config() const { return Config; }
  uint64_t cycles() const { return Stats.Cycles; }

  /// An immutable snapshot of the profile repository. Flushes every
  /// thread's pending samples first; once the run has ended, also
  /// flushes incomplete code-patching windows. Cheap to copy and stays
  /// valid after further execution or VM destruction.
  prof::DCGSnapshot profile();

  /// The sampled per-class allocation histogram (populated when
  /// ProfilerOptions::ProfileAllocations is set — the §8
  /// generalization).
  const prof::AllocationProfile &allocationProfile() const {
    return AllocProfile;
  }
  /// The exhaustive allocation histogram (the heap's own counts),
  /// for scoring the sampled one.
  prof::AllocationProfile trueAllocationProfile() const;

  /// Per-method timer-tick sample counts: the AOS hotness input.
  const std::vector<uint32_t> &methodTickSamples() const {
    return TickSamples;
  }
  /// Per-method invocation counts (host bookkeeping; used by Table 1 and
  /// the code-patching promotion trigger).
  const std::vector<uint64_t> &invocationCounts() const {
    return InvocationCounts;
  }
  /// Number of methods invoked at least once.
  size_t methodsExecuted() const;

  CodeCache &codeCache() { return Cache; }
  Heap &heap() { return TheHeap; }
  void setClient(VMClient *C) { Client = C; }

  /// The online profile-quality monitor (null unless
  /// ProfilerOptions::Quality.EveryTicks != 0).
  const prof::ProfileQualityMonitor *qualityMonitor() const {
    return Quality.get();
  }

  /// Modelled cycles attributed to profiling machinery: the sum of the
  /// overhead.* rows (includes the attribute-only yieldpoint servicing,
  /// which is not part of vm.profiling_cycles).
  uint64_t overheadCycles() const {
    uint64_t Sum = 0;
#define CBSVM_VM_OVERHEAD_ADD(Field, Name, Kind) Sum += Stats.Field;
    CBSVM_VM_OVERHEAD_METRICS(CBSVM_VM_OVERHEAD_ADD)
#undef CBSVM_VM_OVERHEAD_ADD
    return Sum;
  }

  /// The full metrics registry, brought up to the current run state:
  /// every CBSVM_VM_METRICS row of stats() is written under its name,
  /// then the derived gauges (heap, code cache, methods executed,
  /// overhead.total_fraction_bp) are refreshed. Registry entries of the
  /// VM's rows are a view; read them only through this call.
  const tel::MetricRegistry &metrics();
  /// Mutable registry access for cooperating components (the adaptive
  /// system registers its "aos.*" metrics here).
  tel::MetricRegistry &metricsRegistry() { return Registry; }
  /// The installed trace sink (null when tracing is off).
  tel::TraceSink *traceSink() const { return Trace; }

  /// Installs a compiled version: the AOS path, and the lazy
  /// first-touch compile's. Compile cycles are tracked in
  /// stats().CompileCycles and vm.compile_cost_cycles, not charged to
  /// execution time (compilation runs on a background thread in the
  /// modelled VMs), and the trace gets a compile_start/compile_finish
  /// pair at the current cycle.
  InstalledVersion *installCompiled(CompiledMethod CM);

  /// Deoptimizes \p Id: its active version is invalidated in the code
  /// cache and every frame still pinning it falls back to baseline
  /// execution speed at its thread's next taken yieldpoint (each such
  /// frame is charged cost::DeoptCost once at that transition).
  /// Future invocations recompile lazily through the normal baseline
  /// path. With VMConfig::EnableOSR a deopted frame additionally
  /// transfers to a fresh baseline version at its next loop-header
  /// backedge yieldpoint (deopt OSR) instead of limping on the
  /// invalidated code until it returns. Returns false when the method
  /// had no active version. Must be called from the VM thread (client
  /// hooks), like installCompiled.
  bool deoptimize(bc::MethodId Id);

private:
  enum class Where : uint8_t { Prologue, Epilogue, Backedge };

  void fireTimer();
  /// \p BackedgeTarget is the taken backward branch's target when
  /// W == Backedge (the candidate OSR point); unused otherwise.
  void processTaken(Thread &T, Where W, uint32_t BackedgeTarget = 0);
  void maybeSwitch();
  size_t countRunnable() const;
  void recordEdgeSample(Thread &T);
  /// Organizer step: batch-flush \p T's sample buffer into the shared
  /// repository, folding drop/flush counts into the dcg.* metrics.
  void flushThreadBuffer(Thread &T);
  void flushAllBuffers();
  /// Charges \p Cost to execution time, the profiling total, and the
  /// overhead.* component field \p Component of Stats.
  void chargeProf(uint32_t Cost, uint64_t &Component) {
    Stats.Cycles += Cost;
    Stats.ProfilingCycles += Cost;
    Component += Cost;
  }
  /// Quality-monitor window boundary (called from fireTimer).
  void closeQualityWindow();
  /// Routes an anomaly event to the trace sink and (when distinct) the
  /// flight recorder.
  void emitAnomaly(const tel::TraceEvent &E);
  /// Reconciles \p T's frames with the global deopt epoch: frames
  /// pinning invalidated versions flip to the baseline fallback path.
  void reconcileDeoptFrames(Thread &T);
  /// On-stack replacement (VMConfig::EnableOSR, taken backedge
  /// yieldpoints only): if \p T's top frame runs a version that is no
  /// longer its method's active one and both versions kept the loop
  /// header the backedge jumps to, the frame transfers to the active
  /// version (a Deopted frame with no active version transfers to a
  /// fresh baseline). Charges cost::OsrCost per transfer. Runs on
  /// the VM thread in virtual time — determinism-neutral.
  void maybeOSR(Thread &T, uint32_t BackedgeTarget);
  /// \p Id's active version, compiled at VMConfig::JITLevel and
  /// installed first if there is none.
  InstalledVersion *ensureCompiled(bc::MethodId Id);
  /// Pushes a frame for \p Callee consuming \p ArgCount values from the
  /// current operand stack; runs entry profiling hooks.
  void invoke(Thread &T, bc::MethodId Callee, uint32_t ArgCount,
              bc::SiteId Site);
  /// Pops \p T's top frame (after the Jikes epilogue yieldpoint),
  /// moving the result, if \p HasResult, onto the caller's operand
  /// stack. Ends the thread, and the run with the last thread.
  void returnFrom(Thread &T, bool HasResult);
  /// The `new` instruction's runtime part: GC request, allocation
  /// sampling, and the allocation itself.
  Ref newObject(Thread &T, bc::ClassId Class);
  Thread &spawnThread(bc::MethodId Entry);
  void trap(const std::string &Message);

  const bc::Program &P;
  VMConfig Config;
  tel::MetricRegistry Registry;
  VMStats Stats;
  /// The two registry-owned metrics (must follow Registry).
  tel::Histogram &SampleStackDepth;  // vm.sample_stack_depth
  tel::Histogram &CompileCostCycles; // vm.compile_cost_cycles
  tel::TraceSink *Trace = nullptr;
  tel::FlightRecorder *Recorder = nullptr;
  /// True when this configuration's profiling work is *charged* (CBS /
  /// Timer / CodePatching / charged Exhaustive): gates the modelled
  /// flush and snapshot costs so the free-exhaustive reference runs
  /// stay cost-free.
  bool ChargedProfiling = false;
  CodeCache Cache;
  Heap TheHeap;
  RandomEngine RNG;

  std::vector<std::unique_ptr<Thread>> Threads;
  size_t Current = 0;
  bool SwitchPending = false;
  bool TickPending = false;
  bool GCRequested = false;
  uint64_t NextTimerAt = 0;
  uint64_t NextGCAt = 0;
  /// Bumped by deoptimize(); threads reconcile their frames against it
  /// lazily at taken yieldpoints (Thread::DeoptEpochSeen).
  uint64_t DeoptEpoch = 0;

  prof::DynamicCallGraph DCG;
  prof::AllocationProfile AllocProfile;
  std::unique_ptr<prof::CodePatchingProfiler> Patching;
  std::unique_ptr<prof::ProfileQualityMonitor> Quality;
  /// Stats at the last recorder window note (the delta baseline).
  VMStats WinBase;

  std::vector<uint64_t> InvocationCounts;
  std::vector<uint32_t> TickSamples;
  VMClient *Client = nullptr;

  RunState State = RunState::Running;
  /// Client->onStartup has fired (it fires once, at the start of the
  /// first run() call).
  bool StartupNotified = false;
  std::string TrapMsg;
  std::vector<int64_t> Output;
};

} // namespace cbs::vm

#endif // CBSVM_VM_VIRTUALMACHINE_H
