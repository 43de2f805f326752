//===- vm/Thread.h - Green threads and frames -------------------*- C++ -*-===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Green (VM-scheduled) threads. Each thread owns one contiguous value
/// arena: a frame's locals occupy [LocalBase, LocalBase + NumLocals) and
/// its operand stack is everything beyond, up to the stack pointer Sp.
/// A push stores at Sp and bumps it, a pop bumps it back, and a frame
/// pop resets it to the frame's LocalBase. The arena is allocated
/// larger than its live part; a push that finds Sp == End doubles it
/// (growValues), so a frame addresses its locals by index, never by a
/// pointer kept across a push.
///
/// Per the paper (§5.2, "thread-local variables are used for the
/// counters to avoid potential scalability issues or race conditions"),
/// each thread carries its own sampler state machines; the shared
/// profile repository is updated only when a sample fires.
///
//===----------------------------------------------------------------------===//

#ifndef CBSVM_VM_THREAD_H
#define CBSVM_VM_THREAD_H

#include "profiling/CallEdge.h"
#include "profiling/CounterBasedSampler.h"
#include "profiling/SampleBuffer.h"
#include "profiling/TimerSampler.h"
#include "vm/CodeCache.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

namespace cbs::vm {

struct Frame {
  /// The version the frame runs; the cache counts it as pinned.
  InstalledVersion *Version = nullptr;
  uint32_t PC = 0;
  /// Index of locals[0] within the thread's value arena.
  uint32_t LocalBase = 0;
  /// The frame's pinned version was invalidated after the frame
  /// entered it: the frame keeps executing its code (semantics are
  /// unchanged — guard misses fall through to the real dispatch) but at
  /// baseline speed, the modelled stand-in for falling back to
  /// interpreted code. With VMConfig::EnableOSR the frame additionally
  /// transfers to a fresh baseline version at the next loop-header
  /// yieldpoint (deopt OSR), clearing this flag; without OSR it limps
  /// on its pinned code until it returns.
  bool Deopted = false;
  /// The per-PC charges this frame pays: the body's CostTable, or its
  /// baselineCosts() once Deopted.
  const PcCost *Costs = nullptr;
};

/// The Jikes RVM yieldpoint control word states (§5.1): prologue and
/// epilogue yieldpoints are taken when the word is nonzero; backedge
/// yieldpoints only when it is positive.
enum class YieldWord : int8_t {
  CBSArmed = -1, ///< take prologue/epilogue yieldpoints (CBS window open)
  Clear = 0,     ///< take nothing
  TakeAll = 1,   ///< take all yieldpoints (timer/GC service request)
};

struct Thread {
  uint32_t Id = 0;
  std::vector<Frame> Frames;
  /// The value arena: [Base, Sp) is live, [Sp, End) is free. One
  /// guard slot, zero, sits below Base, so that Sp[-1] is in bounds
  /// even when nothing is live.
  std::unique_ptr<int64_t[]> Arena;
  int64_t *Base = nullptr;
  int64_t *Sp = nullptr;
  int64_t *End = nullptr;
  bool Finished = false;

  /// The single overloadable check word (paper Figures 3-4 / §5.1).
  YieldWord Word = YieldWord::Clear;
  /// A thread switch was requested while the CBS window was armed; it is
  /// honoured when the window closes (§5.1: "then ... the thread switch
  /// is allowed to occur").
  bool DeferredSwitch = false;
  /// VM-global deopt epoch this thread last reconciled its frames
  /// against (at a taken yieldpoint); a lower value means invalidated
  /// versions may still be running at optimized speed in this stack.
  uint64_t DeoptEpochSeen = 0;

  prof::CounterBasedSampler CBS;
  /// §8 generalization: the same state machine over allocation events.
  prof::CounterBasedSampler Alloc;
  prof::TimerSampler Timer;
  /// Per-thread raw-sample staging (the paper's listener side): appends
  /// are thread-local and lock-free; the VM flushes the buffer into the
  /// shared repository as one batch when it fills, at thread switches,
  /// and at shutdown/snapshot points.
  prof::SampleBuffer Buffer;

  /// Slots a fresh arena gets: small, since most threads stay shallow.
  static constexpr size_t InitialArenaSlots = 64;

  size_t numValues() const { return static_cast<size_t>(Sp - Base); }

  /// Reallocates the arena to hold at least \p MinSlots values, at
  /// least doubling it and keeping the live ones. Base, Sp and End move
  /// with it.
  void growValues(size_t MinSlots) {
    size_t Live = numValues();
    size_t Cap = static_cast<size_t>(End - Base);
    size_t NewCap = Cap == 0 ? InitialArenaSlots : 2 * Cap;
    while (NewCap < MinSlots)
      NewCap *= 2;
    std::unique_ptr<int64_t[]> Grown(new int64_t[NewCap + 1]);
    Grown[0] = 0;
    std::copy(Base, Sp, Grown.get() + 1);
    Arena = std::move(Grown);
    Base = Arena.get() + 1;
    Sp = Base + Live;
    End = Base + NewCap;
  }

  /// Sets the number of live values to \p N; slots it adds read zero.
  void resizeValues(size_t N) {
    if (N > static_cast<size_t>(End - Base))
      growValues(N);
    int64_t *NewSp = Base + N;
    if (NewSp > Sp)
      std::fill(Sp, NewSp, 0);
    Sp = NewSp;
  }

  void push(int64_t V) {
    if (Sp == End)
      growValues(numValues() + 1);
    *Sp++ = V;
  }

  Frame &top() { return Frames.back(); }
  const Frame &top() const { return Frames.back(); }
  size_t depth() const { return Frames.size(); }

  /// The top caller→callee edge, or nullopt when the thread is at its
  /// entry frame (no caller) or its caller is suspended at a non-call
  /// instruction. This is what a DCG stack sample records.
  std::optional<prof::CallEdge> topEdge() const {
    if (Frames.size() < 2)
      return std::nullopt;
    const Frame &Caller = Frames[Frames.size() - 2];
    const bc::Instruction &CI = Caller.Version->Body.Code[Caller.PC];
    if (!bc::isCall(CI.Op))
      return std::nullopt;
    return prof::CallEdge{CI.Site, Frames.back().Version->Body.Id};
  }
};

} // namespace cbs::vm

#endif // CBSVM_VM_THREAD_H
