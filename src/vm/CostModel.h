//===- vm/CostModel.h - Virtual cycle accounting ----------------*- C++ -*-===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The modelled cycle costs that define "time" in CBSVM: one fixed
/// calibration table, standing in for the one machine the paper
/// measures on. All experiment quantities — run time, profiling
/// overhead, inlining speedup — are ratios of these cycles, so only the
/// *ratios* between constants matter. They are calibrated against the
/// paper's hardware (see EXPERIMENTS.md): with a timer period of 200k
/// cycles, the ratio sample-cost : timer-period and the ratio
/// armed-event-cost : cycles-per-call match the 2.8 GHz / 10 ms-tick
/// setup closely enough that Table 2's overhead column shapes
/// reproduce.
///
/// Per-instruction base costs are the instruction-set table's cycles
/// column (bytecode/Opcode.h, read through bc::instructionCycles); this
/// table holds everything the VM charges besides instructions. The one
/// cost setting that varies between runs, the background-compile
/// latency scale, belongs to the adaptive system that models the
/// compile thread (aos::AOSConfig::CompileLatencyScale).
///
//===----------------------------------------------------------------------===//

#ifndef CBSVM_VM_COSTMODEL_H
#define CBSVM_VM_COSTMODEL_H

#include <cstdint>

namespace cbs::vm::cost {

// --- Runtime services --------------------------------------------------
/// Signal delivery per tick (base + prof).
inline constexpr uint32_t TimerInterrupt = 80;
/// A taken yieldpoint servicing a tick.
inline constexpr uint32_t TickService = 20;
inline constexpr uint32_t ThreadSwitch = 60;
inline constexpr uint32_t GCPause = 2000;

// --- Profiling machinery ------------------------------------------------
/// A prologue/epilogue yieldpoint (or J9 entry check) taken while the
/// CBS window is armed: the Figure 3 countdown logic.
inline constexpr uint32_t ArmedEventCost = 8;
/// One stack sample: walk + repository update.
inline constexpr uint32_t StackSampleBase = 8;
/// One allocation-profile sample: histogram bump only, no walk.
inline constexpr uint32_t AllocSampleCost = 3;
/// Per-call counter update of the exhaustive (Vortex-style PIC
/// counter) profiler. 8 cycles on a ~40-cycle average call gives the
/// 15-50% overhead range §3.1 reports.
inline constexpr uint32_t ExhaustiveCounter = 8;
/// One execution of a code-patching prologue listener (§3.2).
inline constexpr uint32_t ListenerCost = 16;
/// The three-instruction explicit entry check a VM without an
/// overloadable prologue test would pay on *every* entry (§4,
/// implementation options). Only charged with
/// VMConfig::ExplicitEntryCheck.
inline constexpr uint32_t ExplicitEntryCheck = 3;
/// Organizer step (§5.1): fixed cost of one SampleBuffer batch flush
/// into the shared repository...
inline constexpr uint32_t BufferFlushBase = 8;
/// ...plus this much per pending sample in the batch.
inline constexpr uint32_t BufferFlushPerSample = 1;
/// Per-edge cost of materializing a DCGSnapshot while the program
/// runs (the organizer/AOS read path; post-run snapshots are
/// measurement and stay free).
inline constexpr uint32_t SnapshotPerEdge = 1;

// --- Deoptimization ------------------------------------------------------
/// One-time cost charged per active frame that transitions to the
/// baseline fallback path after its compiled version is invalidated
/// (frame-state reconstruction at the yieldpoint). Dispatches after
/// the transition pay only the loss of the version's LevelScale.
inline constexpr uint32_t DeoptCost = 150;

// --- On-stack replacement ------------------------------------------------
/// One-time cost of transferring a live frame between versions of its
/// method at a loop-header yieldpoint (extract the frame state from
/// the old version, rebuild it for the new one, redirect the PC).
/// Charged for both promotion OSR (entering newer optimized code
/// mid-activation) and deopt OSR (a Frame::Deopted frame reconciling
/// to baseline). Deliberately pricier than DeoptCost: OSR rebuilds
/// the frame for *different* code rather than reusing it.
inline constexpr uint32_t OsrCost = 220;

// --- Compilation ---------------------------------------------------------
/// Execution-speed multipliers per optimization level; optimized code
/// retires modelled instructions faster.
inline constexpr double LevelScale[3] = {1.0, 0.80, 0.65};
/// Compile cycles per modelled bytecode byte per level.
inline constexpr double CompileCostPerByte[3] = {40.0, 250.0, 800.0};

} // namespace cbs::vm::cost

#endif // CBSVM_VM_COSTMODEL_H
