//===- tests/QualityMonitorTest.cpp - self-observability tests -----------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
//
// The profiler self-observability stack: the online quality monitor
// (overlap/churn/confidence pins, phase-shift flagging), the
// per-component overhead attribution (the partition invariant over
// vm.profiling_cycles), the flight recorder (ring retention, every
// anomaly trigger, the MaxDumps cap), and sample_drop event payloads.
// Monitor and recorder JSON byte-identity across compile-job and
// ParallelRunner job counts is DeterminismMatrixTest's.
//
//===----------------------------------------------------------------------===//

#include "experiments/Experiments.h"
#include "profiling/DynamicCallGraph.h"
#include "profiling/QualityMonitor.h"
#include "support/Json.h"
#include "telemetry/FlightRecorder.h"
#include "telemetry/MetricRegistry.h"
#include "telemetry/TraceSink.h"
#include "vm/VirtualMachine.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace cbs;
using namespace cbs::prof;

namespace {

DCGSnapshot snapshotOf(std::initializer_list<std::pair<CallEdge, uint64_t>> Edges) {
  DynamicCallGraph DCG;
  for (const auto &[Edge, Weight] : Edges)
    DCG.addSample(Edge, Weight);
  return DCG.snapshot();
}

std::string monitorJson(const ProfileQualityMonitor &M) {
  json::JsonWriter W;
  M.writeJson(W);
  return W.take();
}

} // namespace

//===----------------------------------------------------------------------===//
// Monitor unit behaviour
//===----------------------------------------------------------------------===//

TEST(QualityMonitor, EdgeConfidencePins) {
  // confidence = 100 * (1 - 1/sqrt(w)), clamped at 0.
  EXPECT_DOUBLE_EQ(ProfileQualityMonitor::edgeConfidencePct(0), 0.0);
  EXPECT_DOUBLE_EQ(ProfileQualityMonitor::edgeConfidencePct(1), 0.0);
  EXPECT_DOUBLE_EQ(ProfileQualityMonitor::edgeConfidencePct(4), 50.0);
  EXPECT_DOUBLE_EQ(ProfileQualityMonitor::edgeConfidencePct(100), 90.0);
}

TEST(QualityMonitor, FirstWindowIsVacuouslyConverged) {
  tel::MetricRegistry R;
  ProfileQualityMonitor M({/*EveryTicks=*/1}, R);
  const QualityWindow &W =
      M.onWindow(snapshotOf({{{1, 2}, 16}}), /*Tick=*/1, /*Cycles=*/100);
  EXPECT_EQ(W.Index, 1u);
  EXPECT_DOUBLE_EQ(W.OverlapPct, 100.0);
  EXPECT_FALSE(W.PhaseShift);
  EXPECT_FALSE(M.converged()) << "needs two windows";
  EXPECT_DOUBLE_EQ(W.MeanConfidencePct,
                   ProfileQualityMonitor::edgeConfidencePct(16));
}

TEST(QualityMonitor, IdenticalSnapshotsConverge) {
  tel::MetricRegistry R;
  ProfileQualityMonitor M({/*EveryTicks=*/1}, R);
  DCGSnapshot S = snapshotOf({{{1, 2}, 8}, {{3, 4}, 8}});
  M.onWindow(S, 1, 100);
  const QualityWindow &W = M.onWindow(S, 2, 200);
  EXPECT_DOUBLE_EQ(W.OverlapPct, 100.0);
  EXPECT_EQ(W.HotNew, 0u);
  EXPECT_EQ(W.HotVanished, 0u);
  EXPECT_FALSE(W.PhaseShift);
  EXPECT_TRUE(M.converged());
  EXPECT_EQ(M.phaseShiftCount(), 0u);
}

TEST(QualityMonitor, DisjointSnapshotsArePhaseShift) {
  tel::MetricRegistry R;
  ProfileQualityMonitor M({/*EveryTicks=*/1, /*PhaseShiftOverlapPct=*/50.0}, R);
  M.onWindow(snapshotOf({{{1, 2}, 32}}), 1, 100);
  const QualityWindow &W = M.onWindow(snapshotOf({{{3, 4}, 32}}), 2, 200);
  EXPECT_DOUBLE_EQ(W.OverlapPct, 0.0);
  EXPECT_TRUE(W.PhaseShift);
  EXPECT_EQ(W.HotNew, 1u);
  EXPECT_EQ(W.HotVanished, 1u);
  EXPECT_EQ(M.phaseShiftCount(), 1u);
  EXPECT_FALSE(M.converged());
}

TEST(QualityMonitor, EmptySnapshotsNeverShift) {
  // An immature (still-empty) or fully decayed profile is not a phase
  // shift: the flag means "the hot set moved", not "there is no data".
  tel::MetricRegistry R;
  ProfileQualityMonitor M({/*EveryTicks=*/1}, R);
  EXPECT_FALSE(M.onWindow(snapshotOf({}), 1, 100).PhaseShift);
  EXPECT_FALSE(M.onWindow(snapshotOf({{{1, 2}, 4}}), 2, 200).PhaseShift);
  EXPECT_FALSE(M.onWindow(snapshotOf({}), 3, 300).PhaseShift);
  EXPECT_EQ(M.phaseShiftCount(), 0u);
}

TEST(QualityMonitor, HotSetChurnCountsTopEdgesOnly) {
  // With HotEdges=1, only the single hottest edge participates in churn
  // accounting; a new cold edge is invisible to hot+/hot-.
  tel::MetricRegistry R;
  ProfileQualityMonitor M(
      {/*EveryTicks=*/1, /*PhaseShiftOverlapPct=*/50.0, /*HotEdges=*/1}, R);
  M.onWindow(snapshotOf({{{1, 2}, 100}, {{5, 6}, 1}}), 1, 100);
  const QualityWindow &W =
      M.onWindow(snapshotOf({{{1, 2}, 100}, {{7, 8}, 1}}), 2, 200);
  EXPECT_EQ(W.HotNew, 0u);
  EXPECT_EQ(W.HotVanished, 0u);
}

TEST(QualityMonitor, PublishesRegistryMetrics) {
  tel::MetricRegistry R;
  ProfileQualityMonitor M({/*EveryTicks=*/1}, R);
  M.onWindow(snapshotOf({{{1, 2}, 4}}), 1, 100);
  M.onWindow(snapshotOf({{{1, 2}, 4}}), 2, 200);
  ASSERT_NE(R.findCounter("dcg.quality.windows"), nullptr);
  EXPECT_EQ(uint64_t(*R.findCounter("dcg.quality.windows")), 2u);
  EXPECT_EQ(uint64_t(*R.findCounter("dcg.quality.phase_shifts")), 0u);
  ASSERT_NE(R.findGauge("dcg.quality.overlap_bp"), nullptr);
  EXPECT_EQ(uint64_t(*R.findGauge("dcg.quality.overlap_bp")), 10'000u);
  ASSERT_NE(R.findHistogram("dcg.quality.edge_confidence_pct"), nullptr);
  EXPECT_EQ(R.findHistogram("dcg.quality.edge_confidence_pct")->count(), 2u);
}

//===----------------------------------------------------------------------===//
// Flight recorder
//===----------------------------------------------------------------------===//

TEST(FlightRecorder, RingKeepsNewestTail) {
  tel::FlightRecorderConfig C;
  C.EventCapacity = 4;
  tel::FlightRecorder FR(C);
  for (uint32_t I = 0; I != 10; ++I)
    FR.event(tel::TraceEvent::sample(/*Cycles=*/I, /*Thread=*/0,
                                     /*Callee=*/I, /*Site=*/0));
  FR.requestDump("end_of_run", /*Cycles=*/10);
  ASSERT_EQ(FR.dumps().size(), 1u);
  const tel::FlightRecorder::Dump &D = FR.dumps().front();
  EXPECT_EQ(D.TotalEventsAtDump, 10u);
  ASSERT_EQ(D.Events.size(), 4u);
  EXPECT_EQ(D.Events.front().A, 6u) << "oldest retained event first";
  EXPECT_EQ(D.Events.back().A, 9u);
}

TEST(FlightRecorder, PhaseShiftAndTrapTrigger) {
  tel::FlightRecorder FR;
  FR.event(tel::TraceEvent::phaseShift(100, 0, /*OverlapBp=*/1200,
                                       /*Window=*/3));
  FR.event(tel::TraceEvent::trap(200, 0, /*Method=*/7, /*PC=*/42));
  ASSERT_EQ(FR.dumps().size(), 2u);
  EXPECT_EQ(FR.dumps()[0].Trigger, "phase_shift");
  EXPECT_EQ(FR.dumps()[1].Trigger, "trap");
  EXPECT_EQ(FR.triggerCount(), 2u);
}

TEST(FlightRecorder, DropSpikeFiresOncePerWindow) {
  tel::FlightRecorderConfig C;
  C.DropSpikeThreshold = 100;
  tel::FlightRecorder FR(C);
  // Two drop events accumulate within one window; the spike fires once.
  FR.event(tel::TraceEvent::sampleDrop(10, 0, /*Capacity=*/8, /*Dropped=*/60));
  EXPECT_EQ(FR.dumps().size(), 0u);
  FR.event(tel::TraceEvent::sampleDrop(20, 0, 8, 60));
  FR.event(tel::TraceEvent::sampleDrop(30, 0, 8, 60));
  ASSERT_EQ(FR.dumps().size(), 1u);
  EXPECT_EQ(FR.dumps().front().Trigger, "drop_spike");
  // A window boundary resets the accumulator and re-arms the trigger.
  FR.noteWindow({});
  FR.event(tel::TraceEvent::sampleDrop(40, 0, 8, 120));
  EXPECT_EQ(FR.dumps().size(), 2u);
}

TEST(FlightRecorder, OverheadBudgetFiresOnRisingEdge) {
  tel::FlightRecorderConfig C;
  C.OverheadBudgetPct = 2.0; // 200 basis points
  tel::FlightRecorder FR(C);
  tel::RecorderWindow W;
  W.OverheadBp = 100;
  FR.noteWindow(W);
  EXPECT_EQ(FR.dumps().size(), 0u);
  W.OverheadBp = 300;
  FR.noteWindow(W); // crossing: fires
  FR.noteWindow(W); // still over: no re-fire
  ASSERT_EQ(FR.dumps().size(), 1u);
  EXPECT_EQ(FR.dumps().front().Trigger, "overhead_budget");
  W.OverheadBp = 100;
  FR.noteWindow(W); // back under budget
  W.OverheadBp = 300;
  FR.noteWindow(W); // second crossing
  EXPECT_EQ(FR.dumps().size(), 2u);
}

TEST(FlightRecorder, MaxDumpsCapsDumpsNotTriggers) {
  tel::FlightRecorderConfig C;
  C.MaxDumps = 1;
  tel::FlightRecorder FR(C);
  FR.event(tel::TraceEvent::trap(100, 0, 1, 1));
  FR.event(tel::TraceEvent::trap(200, 0, 2, 2));
  EXPECT_EQ(FR.dumps().size(), 1u);
  EXPECT_EQ(FR.triggerCount(), 2u);
}

TEST(FlightRecorder, JsonIsValid) {
  tel::FlightRecorder FR;
  FR.event(tel::TraceEvent::phaseShift(100, 0, 1200, 3));
  FR.noteWindow({});
  std::string Json = FR.toJson();
  json::JsonParseResult R = json::parseJson(Json);
  ASSERT_TRUE(R.Value.has_value()) << R.Error;
  EXPECT_NE(Json.find("\"phase_shift\""), std::string::npos);
}

//===----------------------------------------------------------------------===//
// VM integration
//===----------------------------------------------------------------------===//

namespace {

/// The monitored phase-shift configuration the acceptance runs use:
/// CBS profiling, aggressive decay (so the repository is
/// recency-weighted), a quality window every 4 ticks.
vm::VMConfig monitoredConfig(const bc::Program &P, uint64_t Seed) {
  vm::VMConfig Config = exp::jitOnlyConfig(P, vm::Personality::JikesRVM, Seed);
  Config.Profiler.Kind = vm::ProfilerKind::CBS;
  Config.Profiler.CBS = {/*Stride=*/3, /*SamplesPerTick=*/16};
  Config.Profiler.DecayEveryTicks = 4;
  Config.Profiler.DecayFactor = 0.5;
  Config.Profiler.Quality.EveryTicks = 4;
  Config.Profiler.Quality.PhaseShiftOverlapPct = 75.0;
  return Config;
}

} // namespace

TEST(QualityMonitorVM, PhaseShiftDetectedOnPhasedWorkload) {
  bc::Program P = wl::buildPhased(wl::InputSize::Small, /*Seed=*/1);
  vm::VirtualMachine VM(P, monitoredConfig(P, 1));
  EXPECT_EQ(VM.run(), vm::RunState::Finished);
  const ProfileQualityMonitor *M = VM.qualityMonitor();
  ASSERT_NE(M, nullptr);
  EXPECT_GE(M->windowCount(), 8u);
  EXPECT_GE(M->phaseShiftCount(), 1u)
      << "the phased program's hot-set swap must register as a shift";
  // The profile re-converges once the second phase is established.
  EXPECT_TRUE(M->converged());
}

TEST(QualityMonitorVM, DisabledByDefault) {
  bc::Program P = wl::buildPhased(wl::InputSize::Small, 1);
  vm::VMConfig Config = exp::jitOnlyConfig(P, vm::Personality::JikesRVM, 1);
  vm::VirtualMachine VM(P, Config);
  EXPECT_EQ(VM.qualityMonitor(), nullptr);
  EXPECT_EQ(VM.run(), vm::RunState::Finished);
  EXPECT_EQ(VM.qualityMonitor(), nullptr);
}

TEST(QualityMonitorVM, ProfilingCyclesPartitionInvariant) {
  // The first six overhead.* components partition vm.profiling_cycles
  // exactly; yieldpoint servicing is attribute-only.
  bc::Program P = wl::buildPhased(wl::InputSize::Small, 1);
  vm::VirtualMachine VM(P, monitoredConfig(P, 1));
  EXPECT_EQ(VM.run(), vm::RunState::Finished);
  const tel::MetricRegistry &R = VM.metrics();
  auto C = [&R](const char *Name) {
    const tel::Counter *Counter = R.findCounter(Name);
    EXPECT_NE(Counter, nullptr) << Name;
    return Counter ? uint64_t(*Counter) : 0;
  };
  uint64_t Partition =
      C("overhead.entry_check") + C("overhead.counter_update") +
      C("overhead.listener") + C("overhead.stack_walk") +
      C("overhead.buffer_flush") + C("overhead.snapshot");
  EXPECT_EQ(Partition, C("vm.profiling_cycles"));
  EXPECT_GT(Partition, 0u);
  EXPECT_EQ(VM.overheadCycles(), Partition + C("overhead.yieldpoint_taken"));
  ASSERT_NE(R.findGauge("overhead.total_fraction_bp"), nullptr);
  EXPECT_EQ(uint64_t(*R.findGauge("overhead.total_fraction_bp")),
            10'000 * VM.overheadCycles() / VM.cycles());
}

TEST(QualityMonitorVM, FreeExhaustiveChargesNoOverhead) {
  // The reference configuration (exhaustive, uncharged) must stay
  // cost-free: no overhead component may charge execution time.
  bc::Program P = wl::buildPhased(wl::InputSize::Small, 1);
  vm::VMConfig Config = exp::jitOnlyConfig(P, vm::Personality::JikesRVM, 1);
  Config.Profiler.Kind = vm::ProfilerKind::Exhaustive;
  Config.Profiler.ChargeExhaustiveCounters = false;
  Config.Profiler.Quality.EveryTicks = 4;
  vm::VirtualMachine VM(P, Config);
  EXPECT_EQ(VM.run(), vm::RunState::Finished);
  EXPECT_EQ(uint64_t(*VM.metrics().findCounter("vm.profiling_cycles")), 0u);
}

TEST(QualityMonitorVM, SampleDropEventCarriesCapacity) {
  bc::Program P = wl::buildPhased(wl::InputSize::Small, 1);
  vm::VMConfig Config = monitoredConfig(P, 1);
  Config.Profiler.SampleBufferCapacity = 1; // starve the buffer
  tel::CollectorSink Sink;
  Config.Trace = &Sink;
  vm::VirtualMachine VM(P, Config);
  EXPECT_EQ(VM.run(), vm::RunState::Finished);
  size_t Drops = 0;
  uint64_t Dropped = 0;
  for (const tel::TraceEvent &E : Sink.events())
    if (E.Kind == tel::EventKind::SampleDrop) {
      ++Drops;
      EXPECT_EQ(E.A, 1u) << "payload A is the buffer capacity";
      Dropped += E.C;
    }
  EXPECT_GT(Drops, 0u);
  EXPECT_EQ(Dropped,
            uint64_t(*VM.metrics().findCounter("dcg.dropped_samples")));
}

TEST(QualityMonitorVM, RecorderDumpsPhaseShiftAnomaly) {
  bc::Program P = wl::buildPhased(wl::InputSize::Small, 1);
  vm::VMConfig Config = monitoredConfig(P, 1);
  tel::FlightRecorder FR;
  Config.Recorder = &FR;
  vm::VirtualMachine VM(P, Config);
  EXPECT_EQ(VM.run(), vm::RunState::Finished);
  ASSERT_GE(FR.dumps().size(), 1u);
  EXPECT_EQ(FR.dumps().front().Trigger, "phase_shift");
  // The dump's rolling windows carry the monitor's overlap timeline.
  EXPECT_FALSE(FR.dumps().front().Windows.empty());
  EXPECT_GT(FR.countOf(tel::EventKind::PhaseShift), 0u);
}

TEST(QualityMonitorVM, RecorderObserverDoesNotPerturbRun) {
  bc::Program P = wl::buildPhased(wl::InputSize::Small, 1);
  vm::VirtualMachine Plain(P, monitoredConfig(P, 1));
  EXPECT_EQ(Plain.run(), vm::RunState::Finished);

  vm::VMConfig Config = monitoredConfig(P, 1);
  tel::FlightRecorder FR;
  Config.Recorder = &FR;
  vm::VirtualMachine Recorded(P, Config);
  EXPECT_EQ(Recorded.run(), vm::RunState::Finished);

  EXPECT_EQ(Plain.cycles(), Recorded.cycles());
  EXPECT_EQ(monitorJson(*Plain.qualityMonitor()),
            monitorJson(*Recorded.qualityMonitor()));
}
