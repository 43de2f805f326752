//===- tests/TelemetryTest.cpp - telemetry subsystem tests ---------------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
//
// The JSON layer (writer/parser round trips, error rejection), the
// metric registry (histogram bucket boundaries, address stability,
// deterministic rendering), the trace sinks (event counts cross-checked
// against VMStats, Chrome trace_event well-formedness), and the
// determinism guarantee: identical runs produce byte-identical trace
// and metrics JSON.
//
//===----------------------------------------------------------------------===//

#include "experiments/Experiments.h"
#include "opt/InlineOracle.h"
#include "support/Json.h"
#include "telemetry/MetricRegistry.h"
#include "telemetry/TraceSink.h"
#include "vm/VirtualMachine.h"
#include "workloads/Workloads.h"

#include <cmath>
#include <gtest/gtest.h>

using namespace cbs;
using namespace cbs::tel;

//===----------------------------------------------------------------------===//
// JSON writer and parser
//===----------------------------------------------------------------------===//

TEST(Json, WriterBasics) {
  json::JsonWriter W;
  W.beginObject();
  W.key("n");
  W.value(uint64_t(42));
  W.key("s");
  W.value("a\"b\\c\n");
  W.key("list");
  W.beginArray();
  W.value(1);
  W.value(2.5);
  W.value(true);
  W.null();
  W.endArray();
  W.endObject();
  EXPECT_EQ(W.take(),
            "{\"n\":42,\"s\":\"a\\\"b\\\\c\\n\",\"list\":[1,2.5,true,null]}");
}

TEST(Json, ParseRoundTripIsByteExact) {
  // Numbers keep their lexeme, member order is preserved, so the parse
  // of writer output re-serializes byte-identically.
  std::string Doc = "{\"a\":1e-3,\"b\":[0,-7,3.25],\"c\":{\"x\":\"y\"},"
                    "\"d\":null,\"e\":false}";
  json::JsonParseResult R = json::parseJson(Doc);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(json::writeJson(*R.Value), Doc);
}

TEST(Json, ParserRejectsMalformed) {
  EXPECT_FALSE(json::parseJson("").ok());
  EXPECT_FALSE(json::parseJson("{").ok());
  EXPECT_FALSE(json::parseJson("{\"a\":}").ok());
  EXPECT_FALSE(json::parseJson("[1,]").ok());
  EXPECT_FALSE(json::parseJson("[1] garbage").ok());
  EXPECT_FALSE(json::parseJson("nan").ok());
  EXPECT_FALSE(json::parseJson("{\"a\" 1}").ok());
  EXPECT_FALSE(json::parseJson("\"unterminated").ok());
}

TEST(Json, ParserAccessors) {
  json::JsonParseResult R =
      json::parseJson("{\"n\":3.5,\"arr\":[1,2],\"s\":\"hi\"}");
  ASSERT_TRUE(R.ok());
  EXPECT_DOUBLE_EQ(R.Value->numberOr("n", 0), 3.5);
  EXPECT_DOUBLE_EQ(R.Value->numberOr("missing", -1), -1);
  const json::JsonValue *Arr = R.Value->find("arr");
  ASSERT_NE(Arr, nullptr);
  ASSERT_TRUE(Arr->isArray());
  EXPECT_EQ(Arr->Elements.size(), 2u);
  EXPECT_EQ(R.Value->find("s")->Str, "hi");
}

//===----------------------------------------------------------------------===//
// Metric registry
//===----------------------------------------------------------------------===//

TEST(MetricRegistry, HistogramBucketBoundaries) {
  // Bucket 0 holds only 0; bucket k holds [2^(k-1), 2^k).
  EXPECT_EQ(Histogram::bucketIndex(0), 0u);
  EXPECT_EQ(Histogram::bucketIndex(1), 1u);
  EXPECT_EQ(Histogram::bucketIndex(2), 2u);
  EXPECT_EQ(Histogram::bucketIndex(3), 2u);
  EXPECT_EQ(Histogram::bucketIndex(4), 3u);
  EXPECT_EQ(Histogram::bucketIndex(7), 3u);
  EXPECT_EQ(Histogram::bucketIndex(8), 4u);
  EXPECT_EQ(Histogram::bucketIndex(UINT64_MAX), 64u);
  EXPECT_EQ(Histogram::bucketLow(0), 0u);
  EXPECT_EQ(Histogram::bucketLow(1), 1u);
  EXPECT_EQ(Histogram::bucketLow(4), 8u);

  Histogram H;
  for (uint64_t V : {0, 1, 2, 3, 4, 7, 8})
    H.record(V);
  EXPECT_EQ(H.bucketCount(0), 1u);
  EXPECT_EQ(H.bucketCount(1), 1u);
  EXPECT_EQ(H.bucketCount(2), 2u);
  EXPECT_EQ(H.bucketCount(3), 2u);
  EXPECT_EQ(H.bucketCount(4), 1u);
  EXPECT_EQ(H.count(), 7u);
  EXPECT_EQ(H.sum(), 25u);
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.max(), 8u);
}

TEST(MetricRegistry, HistogramQuantilePins) {
  // {1, 2, 4, 8}: the p50 rank (2) lands at the top of bucket [2, 4),
  // interpolating to exactly 4; p90 and p99 interpolate past the
  // recorded maximum and clamp to it.
  Histogram H;
  for (uint64_t V : {1, 2, 4, 8})
    H.record(V);
  EXPECT_DOUBLE_EQ(H.quantile(0.50), 4.0);
  EXPECT_DOUBLE_EQ(H.quantile(0.90), 8.0);
  EXPECT_DOUBLE_EQ(H.quantile(0.99), 8.0);

  // A single-valued histogram is exact at every quantile (the clamp to
  // [min, max] collapses the bucket interpolation).
  Histogram Single;
  Single.record(100);
  EXPECT_DOUBLE_EQ(Single.quantile(0.50), 100.0);
  EXPECT_DOUBLE_EQ(Single.quantile(0.99), 100.0);

  Histogram Flat;
  for (int I = 0; I != 4; ++I)
    Flat.record(4);
  EXPECT_DOUBLE_EQ(Flat.quantile(0.50), 4.0);
  EXPECT_DOUBLE_EQ(Flat.quantile(0.90), 4.0);

  // An empty histogram has no quantiles — NaN, never a fabricated 0
  // (which a real all-zero distribution legitimately produces below).
  Histogram Empty;
  EXPECT_TRUE(std::isnan(Empty.quantile(0.50)));
  EXPECT_TRUE(std::isnan(Empty.quantile(0.0)));
  EXPECT_TRUE(std::isnan(Empty.quantile(1.0)));

  Histogram Zero;
  Zero.record(0);
  EXPECT_DOUBLE_EQ(Zero.quantile(0.50), 0.0);

  // count == 1 is exact at every quantile.
  Histogram One;
  One.record(37);
  EXPECT_DOUBLE_EQ(One.quantile(0.0), 37.0);
  EXPECT_DOUBLE_EQ(One.quantile(0.50), 37.0);
  EXPECT_DOUBLE_EQ(One.quantile(1.0), 37.0);

  // All samples in one bucket: interpolation stays inside the bucket
  // and the clamp keeps the result within the recorded [min, max].
  Histogram OneBucket;
  for (uint64_t V : {9, 10, 11, 12})
    OneBucket.record(V); // all in [8, 16)
  EXPECT_GE(OneBucket.quantile(0.50), 9.0);
  EXPECT_LE(OneBucket.quantile(0.50), 12.0);
  EXPECT_DOUBLE_EQ(OneBucket.quantile(0.99), 12.0);
}

TEST(MetricRegistry, HistogramJsonCarriesQuantiles) {
  MetricRegistry R;
  Histogram &H = R.histogram("h.values");
  for (uint64_t V : {1, 2, 4, 8})
    H.record(V);
  std::string Json = R.toJson();
  EXPECT_NE(Json.find("\"p50\":4"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"p90\":8"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"p99\":8"), std::string::npos) << Json;
}

TEST(MetricRegistry, EmptyHistogramJsonOmitsQuantiles) {
  // A registered-but-never-recorded histogram must not fabricate
  // quantiles in the report: the p50/p90/p99 keys are omitted (JSON
  // has no NaN), while count/sum/min/max stay.
  MetricRegistry R;
  R.histogram("h.empty");
  std::string Json = R.toJson();
  EXPECT_EQ(Json.find("p50"), std::string::npos) << Json;
  EXPECT_EQ(Json.find("p90"), std::string::npos) << Json;
  EXPECT_EQ(Json.find("p99"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"h.empty\":{\"count\":0"), std::string::npos) << Json;
}

TEST(MetricRegistry, SameNameSameAddress) {
  MetricRegistry R;
  Counter &C1 = R.counter("a.count");
  Counter &C2 = R.counter("a.count");
  EXPECT_EQ(&C1, &C2);
  C1 += 3;
  ++C2;
  EXPECT_EQ(uint64_t(C1), 4u);
  EXPECT_EQ(R.findCounter("a.count")->Value, 4u);
  EXPECT_EQ(R.findCounter("missing"), nullptr);

  Gauge &G = R.gauge("a.gauge");
  G = 17;
  G.accumulateMax(5);
  EXPECT_EQ(uint64_t(*R.findGauge("a.gauge")), 17u);
  EXPECT_EQ(R.size(), 2u);
}

TEST(MetricRegistry, MergeAccumulatesByKind) {
  MetricRegistry Parent, Child;
  Parent.counter("c") += 10;
  Parent.gauge("g") = 1;
  Parent.histogram("h").record(4);
  Child.counter("c") += 5;
  Child.counter("only.child") += 2;
  Child.gauge("g") = 9;
  Child.histogram("h").record(100);

  Parent.merge(Child);
  // Counters add; names unique to the child are created.
  EXPECT_EQ(uint64_t(*Parent.findCounter("c")), 15u);
  EXPECT_EQ(uint64_t(*Parent.findCounter("only.child")), 2u);
  // Gauges take the merged-in value (last write wins).
  EXPECT_EQ(uint64_t(*Parent.findGauge("g")), 9u);
  // Histograms merge pointwise: counts/sums add, extrema combine.
  const Histogram *H = Parent.findHistogram("h");
  ASSERT_NE(H, nullptr);
  EXPECT_EQ(H->count(), 2u);
  EXPECT_EQ(H->sum(), 104u);
  EXPECT_EQ(H->min(), 4u);
  EXPECT_EQ(H->max(), 100u);
  // The child is untouched.
  EXPECT_EQ(uint64_t(*Child.findCounter("c")), 5u);
}

TEST(MetricRegistry, MergeEmptyIsANoOp) {
  MetricRegistry Parent, Empty;
  Parent.counter("c") += 3;
  std::string Before = Parent.toJson();
  Parent.merge(Empty);
  EXPECT_EQ(Parent.toJson(), Before);
}

TEST(TraceSink, CollectorDrainReplaysInOrderAndClears) {
  CollectorSink Child, Parent;
  for (uint32_t I = 0; I != 10; ++I)
    Child.event(TraceEvent::timerTick(I, 0, I));
  Child.drainTo(Parent);
  EXPECT_EQ(Child.numEvents(), 0u);
  ASSERT_EQ(Parent.numEvents(), 10u);
  for (uint32_t I = 0; I != 10; ++I)
    EXPECT_EQ(Parent.events()[I].A, I);
  // Draining an empty collector adds nothing.
  Child.drainTo(Parent);
  EXPECT_EQ(Parent.numEvents(), 10u);
}

TEST(MetricRegistry, JsonIsSortedAndValid) {
  MetricRegistry R;
  R.counter("z.last") += 2;
  R.counter("a.first") += 1;
  R.gauge("m.middle") = 7;
  R.histogram("h.hist").record(5);
  std::string Doc = R.toJson();

  json::JsonParseResult Parsed = json::parseJson(Doc);
  ASSERT_TRUE(Parsed.ok()) << Parsed.Error;
  const json::JsonValue *Counters = Parsed.Value->find("counters");
  ASSERT_NE(Counters, nullptr);
  ASSERT_EQ(Counters->Members.size(), 2u);
  // std::map iteration: names come out sorted.
  EXPECT_EQ(Counters->Members[0].first, "a.first");
  EXPECT_EQ(Counters->Members[1].first, "z.last");

  const json::JsonValue *Hists = Parsed.Value->find("histograms");
  ASSERT_NE(Hists, nullptr);
  const json::JsonValue *H = Hists->find("h.hist");
  ASSERT_NE(H, nullptr);
  EXPECT_DOUBLE_EQ(H->numberOr("count", 0), 1);
  EXPECT_DOUBLE_EQ(H->numberOr("sum", 0), 5);
  const json::JsonValue *Buckets = H->find("buckets");
  ASSERT_NE(Buckets, nullptr);
  ASSERT_EQ(Buckets->Elements.size(), 1u); // only non-empty buckets
  EXPECT_DOUBLE_EQ(Buckets->Elements[0].numberOr("lo", -1), 4); // [4,8)
  EXPECT_DOUBLE_EQ(Buckets->Elements[0].numberOr("count", -1), 1);

  // The text rendering mentions every metric.
  std::string Text = json::writeText(*Parsed.Value);
  for (const char *Name : {"a.first", "z.last", "m.middle", "h.hist"})
    EXPECT_NE(Text.find(Name), std::string::npos) << Name;
}

//===----------------------------------------------------------------------===//
// Trace sinks
//===----------------------------------------------------------------------===//

TEST(TraceSink, RingBufferOverflowKeepsNewestAndCounts) {
  RingBufferSink Sink(/*Capacity=*/4);
  for (uint64_t I = 0; I != 10; ++I)
    Sink.event(TraceEvent::sample(I, 0, 1, 2));
  Sink.event(TraceEvent::gc(10, 0, 64));
  EXPECT_EQ(Sink.totalEvents(), 11u);
  EXPECT_EQ(Sink.countOf(EventKind::Sample), 10u);
  EXPECT_EQ(Sink.countOf(EventKind::GC), 1u);

  std::vector<TraceEvent> Kept = Sink.snapshot();
  ASSERT_EQ(Kept.size(), 4u);
  // Oldest-first: the samples at cycles 7, 8, 9 then the GC at 10.
  EXPECT_EQ(Kept.front().Cycles, 7u);
  EXPECT_EQ(Kept.back().Kind, EventKind::GC);
  EXPECT_EQ(Kept.back().C, 64u);
}

/// Runs \p Workload small with CBS profiling and \p Sink installed.
template <typename Sink>
static vm::VMStats runWithSink(const char *Workload, Sink &S,
                               uint64_t Seed = 1) {
  const wl::WorkloadInfo *W = wl::findWorkload(Workload);
  bc::Program P = W->Build(wl::InputSize::Small, Seed);
  vm::VMConfig Config =
      exp::jitOnlyConfig(P, vm::Personality::JikesRVM, Seed);
  Config.Profiler.Kind = vm::ProfilerKind::CBS;
  Config.Profiler.CBS.Stride = 3;
  Config.Profiler.CBS.SamplesPerTick = 16;
  Config.Trace = &S;
  vm::VirtualMachine VM(P, Config);
  EXPECT_NE(VM.run(), vm::RunState::Trapped);
  return VM.stats();
}

TEST(TraceSink, EventCountsMatchVMStats) {
  // jbb: multithreaded and allocating, so every kind of count is
  // non-trivial.
  RingBufferSink Sink(16);
  vm::VMStats Stats = runWithSink("jbb", Sink);

  EXPECT_EQ(Sink.countOf(EventKind::Sample), Stats.SamplesTaken);
  EXPECT_EQ(Sink.countOf(EventKind::TimerTick), Stats.TimerTicks);
  EXPECT_EQ(Sink.countOf(EventKind::GC), Stats.GCCount);
  EXPECT_EQ(Sink.countOf(EventKind::ThreadSwitch), Stats.ThreadSwitches);
  EXPECT_GT(Stats.SamplesTaken, 0u);
  EXPECT_GT(Stats.GCCount, 0u);
  EXPECT_GT(Stats.ThreadSwitches, 0u);
  // Every CBS window that was armed was eventually disarmed or the run
  // ended; arms bound disarms.
  EXPECT_GE(Sink.countOf(EventKind::WindowArm),
            Sink.countOf(EventKind::WindowDisarm));
  EXPECT_GT(Sink.countOf(EventKind::WindowArm), 0u);
  // Compiles come in start/finish pairs.
  EXPECT_EQ(Sink.countOf(EventKind::CompileStart),
            Sink.countOf(EventKind::CompileFinish));
}

TEST(TraceSink, ChromeTraceIsWellFormed) {
  ChromeTraceSink Sink;
  vm::VMStats Stats = runWithSink("compress", Sink);
  ASSERT_GT(Sink.numEvents(), 0u);

  json::JsonParseResult R = json::parseJson(Sink.str());
  ASSERT_TRUE(R.ok()) << R.Error;
  const json::JsonValue *Events = R.Value->find("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_TRUE(Events->isArray());

  uint64_t Samples = 0, Begins = 0, Ends = 0;
  for (const json::JsonValue &E : Events->Elements) {
    const json::JsonValue *Name = E.find("name");
    const json::JsonValue *Phase = E.find("ph");
    ASSERT_NE(Name, nullptr);
    ASSERT_NE(Phase, nullptr);
    EXPECT_NE(E.find("ts"), nullptr);
    EXPECT_NE(E.find("pid"), nullptr);
    EXPECT_NE(E.find("tid"), nullptr);
    if (Name->Str == "sample")
      ++Samples;
    if (Phase->Str == "B")
      ++Begins;
    if (Phase->Str == "E")
      ++Ends;
  }
  EXPECT_EQ(Samples, Stats.SamplesTaken);
  EXPECT_EQ(Begins, Ends); // compile durations pair up
  EXPECT_GT(Begins, 0u);
}

//===----------------------------------------------------------------------===//
// VM integration
//===----------------------------------------------------------------------===//

TEST(Telemetry, StatsFacadeMatchesRegistry) {
  const wl::WorkloadInfo *W = wl::findWorkload("jess");
  bc::Program P = W->Build(wl::InputSize::Small, 1);
  vm::VMConfig Config = exp::jitOnlyConfig(P, vm::Personality::JikesRVM, 1);
  Config.Profiler.Kind = vm::ProfilerKind::CBS;
  vm::VirtualMachine VM(P, Config);
  VM.run();

  const vm::VMStats &Stats = VM.stats();
  const MetricRegistry &R = VM.metrics();
  EXPECT_EQ(Stats.Cycles, R.findCounter("vm.cycles")->Value);
  EXPECT_EQ(Stats.Instructions, R.findCounter("vm.instructions")->Value);
  EXPECT_EQ(Stats.SamplesTaken, R.findCounter("vm.samples_taken")->Value);
  EXPECT_EQ(Stats.TimerTicks, R.findCounter("vm.timer_ticks")->Value);
  EXPECT_EQ(Stats.MaxStackDepth, R.findGauge("vm.max_stack_depth")->Value);
  // Sample-depth histogram saw exactly the samples.
  EXPECT_EQ(R.findHistogram("vm.sample_stack_depth")->count(),
            Stats.SamplesTaken);
}

TEST(Telemetry, NoSinkNoEventsStillSameRun) {
  // The same seed with and without a sink must execute identically —
  // tracing is an observer, never a participant.
  RingBufferSink Sink;
  vm::VMStats WithSink = runWithSink("jess", Sink);

  const wl::WorkloadInfo *W = wl::findWorkload("jess");
  bc::Program P = W->Build(wl::InputSize::Small, 1);
  vm::VMConfig Config = exp::jitOnlyConfig(P, vm::Personality::JikesRVM, 1);
  Config.Profiler.Kind = vm::ProfilerKind::CBS;
  Config.Profiler.CBS.Stride = 3;
  Config.Profiler.CBS.SamplesPerTick = 16;
  vm::VirtualMachine VM(P, Config);
  VM.run();
  EXPECT_EQ(VM.stats().Cycles, WithSink.Cycles);
  EXPECT_EQ(VM.stats().SamplesTaken, WithSink.SamplesTaken);
  EXPECT_EQ(VM.traceSink(), nullptr);
}

TEST(Telemetry, DeterministicTraceAndMetrics) {
  // Byte-identical trace and metrics JSON across two identical runs.
  auto once = [](std::string &TraceOut, std::string &MetricsOut) {
    const wl::WorkloadInfo *W = wl::findWorkload("jbb");
    bc::Program P = W->Build(wl::InputSize::Small, 7);
    vm::VMConfig Config =
        exp::jitOnlyConfig(P, vm::Personality::JikesRVM, 7);
    Config.Profiler.Kind = vm::ProfilerKind::CBS;
    Config.Profiler.CBS.Stride = 3;
    Config.Profiler.CBS.SamplesPerTick = 16;
    ChromeTraceSink Sink;
    Config.Trace = &Sink;
    vm::VirtualMachine VM(P, Config);
    VM.run();
    TraceOut = Sink.str();
    MetricsOut = VM.metrics().toJson();
  };
  std::string Trace1, Metrics1, Trace2, Metrics2;
  once(Trace1, Metrics1);
  once(Trace2, Metrics2);
  EXPECT_EQ(Trace1, Trace2);
  EXPECT_EQ(Metrics1, Metrics2);
  EXPECT_FALSE(Trace1.empty());
}

TEST(Telemetry, DeterministicAdaptiveRun) {
  // The AOS emits inline_decision events from an unordered plan map;
  // sorting by site keeps the full adaptive trace reproducible.
  static opt::NewJikesOracle Oracle;
  auto once = [](std::string &TraceOut) {
    bc::Program P =
        wl::findWorkload("mtrt")->Build(wl::InputSize::Small, 3);
    ChromeTraceSink Sink;
    exp::SpeedupOptions Options;
    Options.Oracle = &Oracle;
    Options.Prof = exp::chosenCBS(vm::Personality::JikesRVM);
    Options.WarmupCycles = 2'000'000;
    Options.MeasureCycles = 2'000'000;
    Options.Seed = 3;
    Options.Trace = &Sink;
    exp::ThroughputResult R = exp::measureThroughput(P, Options);
    EXPECT_GT(R.Stats.Cycles, 0u);
    TraceOut = Sink.str();
  };
  std::string Trace1, Trace2;
  once(Trace1);
  once(Trace2);
  EXPECT_EQ(Trace1, Trace2);

  // The adaptive run actually traced inlining decisions.
  json::JsonParseResult R = json::parseJson(Trace1);
  ASSERT_TRUE(R.ok()) << R.Error;
  bool SawInline = false;
  for (const json::JsonValue &E : R.Value->find("traceEvents")->Elements)
    if (const json::JsonValue *Name = E.find("name"))
      SawInline = SawInline || Name->Str == "inline_decision";
  EXPECT_TRUE(SawInline);
}

TEST(Telemetry, AOSGaugesPublished) {
  bc::Program P = wl::findWorkload("jess")->Build(wl::InputSize::Small, 1);
  opt::NewJikesOracle Oracle;
  vm::VMConfig Config = exp::jitOnlyConfig(P, vm::Personality::JikesRVM, 1);
  Config.Profiler = exp::chosenCBS(vm::Personality::JikesRVM);
  vm::VirtualMachine VM(P, Config);
  aos::AdaptiveSystem AOS(&Oracle);
  VM.setClient(&AOS);
  VM.run();

  const MetricRegistry &R = VM.metrics();
  ASSERT_NE(R.findGauge("aos.ticks"), nullptr);
  EXPECT_EQ(R.findGauge("aos.ticks")->Value, AOS.stats().Ticks);
  EXPECT_EQ(R.findGauge("aos.recompilations")->Value,
            AOS.stats().Recompilations);
  EXPECT_EQ(R.findGauge("aos.plans_computed")->Value,
            AOS.stats().PlansComputed);
  EXPECT_GT(AOS.stats().Ticks, 0u);
}
