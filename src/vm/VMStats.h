//===- vm/VMStats.h - Execution counters ------------------------*- C++ -*-===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Counters accumulated over a VM run. Cycles is total modelled time
/// including all profiling work; ProfilingCycles is the portion
/// attributable to profiling (for decomposition displays — overhead in
/// the experiments is measured the way the paper measures it, by
/// comparing against a separate ProfilerKind::None run).
///
/// This struct is the only storage of every counter and gauge the VM
/// owns: the interpreter updates its plain fields, and each field is
/// named once, in CBSVM_VM_METRICS, together with its registry name and
/// kind. VirtualMachine::metrics() publishes every row into the
/// telemetry registry. A new VM counter is one new row.
///
//===----------------------------------------------------------------------===//

#ifndef CBSVM_VM_VMSTATS_H
#define CBSVM_VM_VMSTATS_H

#include <cstdint>

namespace cbs::vm {

// The overhead.* rows: per-component attribution of profiling work (the
// online Figure 4), in the order the report lists them. The first six
// partition ProfilingCycles exactly; the last is attributed but never
// charged to execution time (yieldpoint tick servicing is a base
// runtime service).
#define CBSVM_VM_OVERHEAD_METRICS(X)                                           \
  X(OvEntryCheck, "overhead.entry_check", counter)                             \
  X(OvCounterUpdate, "overhead.counter_update", counter)                       \
  X(OvListener, "overhead.listener", counter)                                  \
  X(OvStackWalk, "overhead.stack_walk", counter)                               \
  X(OvBufferFlush, "overhead.buffer_flush", counter)                           \
  X(OvSnapshot, "overhead.snapshot", counter)                                  \
  X(OvYieldpoint, "overhead.yieldpoint_taken", counter)

// Every VM counter and gauge, one row each:
//   X(VMStats field, registry name, kind)
// where kind names the tel::MetricRegistry accessor that publishes the
// row (`counter` or `gauge`). Instructions is modelled: `work` counts
// its operand. OsrEntries counts promotion transfers, OsrExits deopted
// frames transferring to baseline code.
#define CBSVM_VM_METRICS(X)                                                    \
  X(Cycles, "vm.cycles", counter)                                              \
  X(Instructions, "vm.instructions", counter)                                  \
  X(CallsExecuted, "vm.calls_executed", counter)                               \
  X(VirtualCallsExecuted, "vm.virtual_calls_executed", counter)                \
  X(TimerTicks, "vm.timer_ticks", counter)                                     \
  X(YieldpointsTaken, "vm.yieldpoints_taken", counter)                         \
  X(SamplesTaken, "vm.samples_taken", counter)                                 \
  X(ProfilingCycles, "vm.profiling_cycles", counter)                           \
  X(CompileCycles, "vm.compile_cycles", counter)                               \
  X(GCCount, "vm.gc_count", counter)                                           \
  X(ThreadSwitches, "vm.thread_switches", counter)                             \
  X(ThreadsSpawned, "vm.threads_spawned", counter)                             \
  X(MaxStackDepth, "vm.max_stack_depth", gauge)                                \
  X(Deopts, "vm.deopts", counter)                                              \
  X(FramesDeopted, "vm.frames_deopted", counter)                               \
  X(OsrEntries, "vm.osr_entries", counter)                                     \
  X(OsrExits, "vm.osr_exits", counter)                                         \
  X(DCGFlushes, "dcg.flushes", counter)                                        \
  X(DCGDropped, "dcg.dropped_samples", counter)                                \
  CBSVM_VM_OVERHEAD_METRICS(X)

struct VMStats {
#define CBSVM_VM_STATS_FIELD(Field, Name, Kind) uint64_t Field = 0;
  CBSVM_VM_METRICS(CBSVM_VM_STATS_FIELD)
#undef CBSVM_VM_STATS_FIELD
};

/// Why VirtualMachine::run returned.
enum class RunState : uint8_t {
  Running,    ///< budget exhausted, resumable
  Finished,   ///< all threads returned from their entry frames
  Halted,     ///< a Halt instruction executed
  Trapped,    ///< runtime error (null deref, bad dispatch, div by 0, ...)
  CycleLimit, ///< VMConfig::MaxCycles reached
};

const char *runStateName(RunState S);

} // namespace cbs::vm

#endif // CBSVM_VM_VMSTATS_H
