//===- aos/CompileQueue.h - Background compile pipeline ---------*- C++ -*-===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The AOS's background compilation pipeline (§6: the paper's VMs
/// recompile hot methods on a background thread while the application
/// keeps running): a bounded priority queue of CompileRequests. Each
/// request carries the cost-benefit score that justified it (the
/// priority), the inline-plan snapshot it was decided against, a
/// modelled compile latency — the compiled code may install only at the
/// first taken yieldpoint whose virtual cycle count passes
/// `enqueue + latency` — and the future of its compile, submitted to
/// the AOS's support::WorkerPool (`--compile-jobs N` threads; at 0 the
/// future is deferred and compiles at the install point). The queue
/// itself is single-threaded VM state — determinism lives here, in
/// virtual time: opt::compileMethod is a pure function of its inputs,
/// so worker runs are byte-identical to jobs=0.
///
/// Backpressure: a duplicate pending method coalesces into the existing
/// entry (upgrading its level when the new request's is higher); a full
/// queue evicts the lowest-priority entry when the newcomer outranks
/// it, otherwise rejects the newcomer. Both policies are deterministic.
///
//===----------------------------------------------------------------------===//

#ifndef CBSVM_AOS_COMPILEQUEUE_H
#define CBSVM_AOS_COMPILEQUEUE_H

#include "opt/InlinePlan.h"
#include "vm/CompiledMethod.h"

#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <vector>

namespace cbs::aos {

/// One pending background compilation.
struct CompileRequest {
  bc::MethodId Method = bc::InvalidMethodId;
  int Level = 0;
  bool IsReopt = false;
  /// Plan generation the snapshot below was taken from; the install
  /// point re-validates against the AOS's current generation.
  uint64_t PlanGeneration = 0;
  /// Immutable snapshot of the inline plan at enqueue time. Shared with
  /// worker threads; never mutated after enqueue.
  std::shared_ptr<const opt::InlinePlan> Plan{};
  uint64_t EnqueueCycle = 0;
  /// First virtual cycle at which the compiled code may install:
  /// EnqueueCycle + modelled latency.
  uint64_t ReadyCycle = 0;
  /// Cost-benefit score (estimated remaining cycles / compile cost).
  double Priority = 0;
  /// Quality-monitor phase shifts seen when the request was enqueued;
  /// a later shift invalidates the plan snapshot.
  uint64_t PhaseShiftsSeen = 0;
  /// CodeCache invalidation epoch of the method when the request was
  /// admitted. A higher epoch at the install point means the method was
  /// deoptimized while this compile was in flight: the pre-computed
  /// result embeds the dead speculation and must not install.
  uint64_t CacheEpoch = 0;
  /// A deopt-storm pin: compiled against the no-speculation plan and
  /// exempt from install-point plan-staleness re-validation (its plan
  /// cannot go stale — it assumes nothing).
  bool Conservative = false;
  /// Enqueued by the deopt path to re-attain an invalidated level (kept
  /// out of the promotion/reopt counters — it repairs, not promotes).
  bool DeoptRecompile = false;
  /// A warm-start pre-enqueue decided against a persisted cross-run
  /// profile (cycle 0, before the sampler exists). Exempt from
  /// install-point plan-staleness re-validation: its plan is *expected*
  /// to predate the live profile — that is the whole point — and stale
  /// warm code is corrected by deopt/quality policing after install,
  /// not by re-enqueueing it forever behind an always-fresher plan.
  bool Warm = false;
  /// Times this request was dropped stale and re-enqueued.
  uint32_t Reenqueues = 0;
  /// Enqueue sequence number: FIFO tie-break among equal priorities.
  uint64_t Seq = 0;
  /// The compile of (Method, Level, Plan), submitted to the AOS's
  /// support::WorkerPool. At compile-jobs 0 it is deferred: the install
  /// point's get() compiles on the VM thread.
  std::future<vm::CompiledMethod> Pending{};
};

/// What enqueue() did with a request (all outcomes are counted by the
/// caller's aos.queue.* metrics).
enum class EnqueueResult : uint8_t {
  Added,          ///< new entry
  Coalesced,      ///< merged into a pending entry for the same method
  EvictedLowest,  ///< added after evicting the lowest-priority entry
  Rejected,       ///< queue full and the newcomer did not outrank anyone
};

/// The bounded priority queue. Single-threaded (owned by the VM
/// thread); the only cross-thread traffic is the futures inside the
/// requests.
class CompileQueue {
public:
  explicit CompileQueue(size_t Capacity) : Capacity(Capacity) {}

  /// Admits \p R under the backpressure policies. On Coalesced the
  /// pending entry absorbs \p R: its level and plan upgrade when R's
  /// level is higher (R.Pending replaces the stale future), and its
  /// priority rises to max(old, new). Returns what happened; on
  /// EvictedLowest the evicted request is returned through \p Evicted.
  EnqueueResult enqueue(CompileRequest R,
                        std::optional<CompileRequest> *Evicted = nullptr);

  /// Removes and returns the best ready request: ReadyCycle <= \p Now,
  /// highest priority, enqueue order breaking ties. nullopt when no
  /// request is ready.
  std::optional<CompileRequest> popReady(uint64_t Now);

  /// Pending level for \p Method (-1 when not pending): lets the
  /// promotion logic treat an in-flight compile as if it had already
  /// installed.
  int pendingLevel(bc::MethodId Method) const;

  /// Removes every pending request for \p Method (the deoptimization
  /// path: queued compiles carry plan snapshots embedding the dead
  /// speculation). Returns how many entries were dropped.
  size_t dropMethod(bc::MethodId Method);

  size_t depth() const { return Entries.size(); }

  /// Enqueue sequence numbers are handed out by the owner so re-enqueued
  /// requests keep a deterministic order.
  uint64_t nextSeq() { return Seq++; }

private:
  size_t Capacity;
  uint64_t Seq = 0;
  std::vector<CompileRequest> Entries;
};

} // namespace cbs::aos

#endif // CBSVM_AOS_COMPILEQUEUE_H
