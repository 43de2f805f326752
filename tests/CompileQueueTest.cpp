//===- tests/CompileQueueTest.cpp - background compile pipeline tests ----------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compile queue's deterministic contracts: backpressure policies
/// (coalescing, eviction, rejection), ready-cycle gating and priority
/// ordering at popReady, and the end-to-end guarantees of the async
/// pipeline — stale plans re-validated at the install point, and
/// modelled latency actually shifting install timing in virtual time.
/// Byte-identity at any --compile-jobs count is DeterminismMatrixTest's.
///
//===----------------------------------------------------------------------===//

#include "aos/AdaptiveSystem.h"
#include "aos/CompileQueue.h"
#include "experiments/Experiments.h"
#include "experiments/RunDriver.h"
#include "telemetry/TraceSink.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

using namespace cbs;
using namespace cbs::aos;

namespace {

CompileRequest request(bc::MethodId Method, int Level, double Priority,
                       CompileQueue &Q, uint64_t ReadyCycle = 0) {
  CompileRequest R;
  R.Method = Method;
  R.Level = Level;
  R.Priority = Priority;
  R.ReadyCycle = ReadyCycle;
  R.Seq = Q.nextSeq();
  return R;
}

} // namespace

TEST(CompileQueue, CoalesceUpgradesLevelAndKeepsSeq) {
  CompileQueue Q(8);
  CompileRequest First = request(/*Method=*/3, /*Level=*/1, /*Priority=*/5, Q);
  uint64_t FirstSeq = First.Seq;
  ASSERT_EQ(Q.enqueue(std::move(First)), EnqueueResult::Added);

  // A higher-level request for the same method supersedes the pending
  // entry wholesale but keeps its queue position (the original Seq).
  EXPECT_EQ(Q.enqueue(request(3, 2, 4, Q)), EnqueueResult::Coalesced);
  EXPECT_EQ(Q.depth(), 1u);
  EXPECT_EQ(Q.pendingLevel(3), 2);

  std::optional<CompileRequest> Popped = Q.popReady(/*Now=*/1'000);
  ASSERT_TRUE(Popped.has_value());
  EXPECT_EQ(Popped->Level, 2);
  EXPECT_EQ(Popped->Seq, FirstSeq);
  // Priority rises to max(old, new) on coalesce in either direction.
  EXPECT_EQ(Popped->Priority, 5);
}

TEST(CompileQueue, CoalesceSameLevelRaisesPriority) {
  CompileQueue Q(8);
  ASSERT_EQ(Q.enqueue(request(1, 1, 2, Q)), EnqueueResult::Added);
  ASSERT_EQ(Q.enqueue(request(2, 1, 5, Q)), EnqueueResult::Added);
  // Method 1 re-requested at the same level with a hotter score: no
  // second entry, but the pending one's priority rises past method 2's.
  EXPECT_EQ(Q.enqueue(request(1, 1, 9, Q)), EnqueueResult::Coalesced);
  EXPECT_EQ(Q.depth(), 2u);

  std::optional<CompileRequest> Popped = Q.popReady(0);
  ASSERT_TRUE(Popped.has_value());
  EXPECT_EQ(Popped->Method, 1u);
  EXPECT_EQ(Popped->Priority, 9);
}

TEST(CompileQueue, OverflowEvictsLowestPriority) {
  CompileQueue Q(2);
  ASSERT_EQ(Q.enqueue(request(1, 1, 10, Q)), EnqueueResult::Added);
  ASSERT_EQ(Q.enqueue(request(2, 1, 3, Q)), EnqueueResult::Added);

  std::optional<CompileRequest> Evicted;
  EXPECT_EQ(Q.enqueue(request(3, 1, 7, Q), &Evicted),
            EnqueueResult::EvictedLowest);
  ASSERT_TRUE(Evicted.has_value());
  EXPECT_EQ(Evicted->Method, 2u);
  EXPECT_EQ(Q.depth(), 2u);
  EXPECT_EQ(Q.pendingLevel(2), -1);
  EXPECT_EQ(Q.pendingLevel(3), 1);
}

TEST(CompileQueue, OverflowRejectsWeakerNewcomer) {
  CompileQueue Q(2);
  ASSERT_EQ(Q.enqueue(request(1, 1, 10, Q)), EnqueueResult::Added);
  ASSERT_EQ(Q.enqueue(request(2, 1, 5, Q)), EnqueueResult::Added);

  // Equal priority does not outrank the incumbent: FIFO wins ties.
  EXPECT_EQ(Q.enqueue(request(3, 1, 5, Q)), EnqueueResult::Rejected);
  EXPECT_EQ(Q.enqueue(request(4, 1, 1, Q)), EnqueueResult::Rejected);
  EXPECT_EQ(Q.depth(), 2u);
  EXPECT_EQ(Q.pendingLevel(1), 1);
  EXPECT_EQ(Q.pendingLevel(2), 1);
}

TEST(CompileQueue, PopReadyGatesOnReadyCycle) {
  CompileQueue Q(8);
  ASSERT_EQ(Q.enqueue(request(1, 1, 10, Q, /*ReadyCycle=*/500)),
            EnqueueResult::Added);
  ASSERT_EQ(Q.enqueue(request(2, 1, 2, Q, /*ReadyCycle=*/100)),
            EnqueueResult::Added);

  // Nothing has passed its modelled latency yet.
  EXPECT_FALSE(Q.popReady(/*Now=*/99).has_value());

  // At cycle 100 only the low-priority request is ready: ready-cycle
  // gating comes before priority.
  std::optional<CompileRequest> Popped = Q.popReady(100);
  ASSERT_TRUE(Popped.has_value());
  EXPECT_EQ(Popped->Method, 2u);

  Popped = Q.popReady(100);
  EXPECT_FALSE(Popped.has_value());

  Popped = Q.popReady(500);
  ASSERT_TRUE(Popped.has_value());
  EXPECT_EQ(Popped->Method, 1u);
  EXPECT_EQ(Q.depth(), 0u);
}

TEST(CompileQueue, PopReadyOrdersByPriorityThenSeq) {
  CompileQueue Q(8);
  ASSERT_EQ(Q.enqueue(request(1, 1, 3, Q)), EnqueueResult::Added);
  ASSERT_EQ(Q.enqueue(request(2, 1, 7, Q)), EnqueueResult::Added);
  ASSERT_EQ(Q.enqueue(request(3, 1, 7, Q)), EnqueueResult::Added);
  ASSERT_EQ(Q.enqueue(request(4, 1, 5, Q)), EnqueueResult::Added);

  std::vector<bc::MethodId> Order;
  while (std::optional<CompileRequest> R = Q.popReady(0))
    Order.push_back(R->Method);
  EXPECT_EQ(Order, (std::vector<bc::MethodId>{2, 3, 4, 1}));
}

namespace {

struct QueueCounts {
  uint64_t Installs = 0;
  uint64_t StaleDrops = 0;
};

/// `cbsvm run <Name> --aos --compile-latency-scale <LatencyScale>`,
/// wired as the driver wires it, tracing into \p Trace; returns the
/// compile queue's install counters.
QueueCounts runWorkload(const char *Name, const char *LatencyScale,
                        tel::TraceSink *Trace = nullptr) {
  support::ArgParser Args(
      {Name, "--aos", "--compile-latency-scale", LatencyScale});
  exp::RunSetup S = exp::parseRunSetup(Args);
  S.Config.Trace = Trace;
  exp::DriverRun Run(S);
  EXPECT_EQ(Run.run(), vm::RunState::Finished) << Run.vm().trapMessage();
  const AOSStats &Stats = Run.adaptive()->stats();
  return {Stats.QueueInstalls, Stats.QueueStaleDrops};
}

} // namespace

TEST(CompileQueue, RunDestroyedWithCompilesInFlight) {
  // exp::Run's lifetime rule under a worker pool: stopping mid-run
  // leaves compiles in flight, and destroying the run (VM first, then
  // the adaptive system, which joins its workers) must neither leak nor
  // touch freed state. The ASan and TSan builds run this too.
  bc::Program P = wl::buildJess(wl::InputSize::Steady, 1);
  exp::RunSpec Spec{.P = &P, .AOS = AOSConfig()};
  Spec.Config.Profiler = exp::chosenCBS(vm::Personality::JikesRVM);
  Spec.AOS->CompileJobs = 2;
  exp::Run Run(std::move(Spec));
  // At 3M cycles one request is pending (at 2M none is yet).
  EXPECT_EQ(Run.run(3'000'000), vm::RunState::Running);
  EXPECT_GT(Run.adaptive()->queueDepth(), 0u);
}

TEST(CompileQueue, StalePlansAreReValidatedAtInstall) {
  // With a long modelled latency on the phase-shift program, plans
  // go stale between decision and install: the install point must
  // drop and re-enqueue rather than install against the old phase.
  QueueCounts A = runWorkload("phased", /*LatencyScale=*/"25");
  EXPECT_GE(A.StaleDrops, 1u);
  EXPECT_GT(A.Installs, 0u) << "re-enqueue must not starve installs";
}

TEST(CompileQueue, LatencyShiftsInstallTiming) {
  auto FirstInstallCycle = [](const tel::CollectorSink &Sink) {
    uint64_t First = UINT64_MAX;
    for (const tel::TraceEvent &E : Sink.events())
      if (E.Kind == tel::EventKind::CompileInstall)
        First = std::min(First, E.Cycles);
    return First;
  };

  tel::CollectorSink Fast, Slow;
  runWorkload("jess", /*LatencyScale=*/"0", &Fast);
  runWorkload("jess", /*LatencyScale=*/"50", &Slow);

  uint64_t FastFirst = FirstInstallCycle(Fast);
  uint64_t SlowFirst = FirstInstallCycle(Slow);
  ASSERT_NE(FastFirst, UINT64_MAX) << "no installs at latency scale 0";
  ASSERT_NE(SlowFirst, UINT64_MAX) << "no installs at latency scale 50";
  EXPECT_LT(FastFirst, SlowFirst)
      << "modelled latency must delay the first install in virtual time";
}

TEST(CompileQueue, EnqueueAndInstallEventsAreTraced) {
  tel::CollectorSink Sink;
  runWorkload("jess", /*LatencyScale=*/"1", &Sink);

  uint64_t Enqueues = 0, Installs = 0;
  for (const tel::TraceEvent &E : Sink.events()) {
    if (E.Kind == tel::EventKind::CompileEnqueue) {
      ++Enqueues;
      EXPECT_GE(E.C, E.Cycles) << "ready cycle precedes the enqueue";
    }
    if (E.Kind == tel::EventKind::CompileInstall)
      ++Installs;
  }
  EXPECT_GT(Enqueues, 0u);
  EXPECT_GT(Installs, 0u);
  EXPECT_GE(Enqueues, Installs);
}
