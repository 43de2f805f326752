//===- bench/micro_profiler_hotpath.cpp - host-time microbenchmarks ------------===//
//
// Part of the CBSVM project.
//
// Google-benchmark microbenchmarks of the profiler hot paths as *host*
// code: the Figure 3 countdown, the DCG update, the stack walk, and
// whole-VM interpretation throughput. These measure the reproduction's
// own implementation cost (not modelled cycles) — useful when tuning
// the simulator, and a sanity check that the disarmed fast path really
// is a single compare.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "profiling/CounterBasedSampler.h"
#include "profiling/DynamicCallGraph.h"
#include "profiling/OverlapMetric.h"
#include "profiling/SampleBuffer.h"
#include "telemetry/MetricRegistry.h"
#include "telemetry/TraceSink.h"
#include "vm/StackWalker.h"

#include <benchmark/benchmark.h>

using namespace cbs;

static void BM_CBSArmedEvent(benchmark::State &State) {
  prof::CBSParams Params;
  Params.Stride = 3;
  Params.SamplesPerTick = 1u << 30; // Never disarm.
  prof::CounterBasedSampler CBS(Params);
  RandomEngine RNG(1);
  CBS.onTimerTick(RNG);
  for (auto _ : State)
    benchmark::DoNotOptimize(CBS.onInvocationEvent());
}
BENCHMARK(BM_CBSArmedEvent);

static void BM_CBSWindowCycle(benchmark::State &State) {
  prof::CBSParams Params;
  Params.Stride = static_cast<uint32_t>(State.range(0));
  Params.SamplesPerTick = 16;
  prof::CounterBasedSampler CBS(Params);
  RandomEngine RNG(1);
  for (auto _ : State) {
    CBS.onTimerTick(RNG);
    while (CBS.armed())
      benchmark::DoNotOptimize(CBS.onInvocationEvent());
  }
}
BENCHMARK(BM_CBSWindowCycle)->Arg(1)->Arg(3)->Arg(7)->Arg(31);

static void BM_DCGAddSample(benchmark::State &State) {
  prof::DynamicCallGraph DCG;
  uint32_t Site = 0;
  for (auto _ : State) {
    DCG.addSample({Site, Site % 37});
    Site = (Site + 1) & 1023;
  }
  benchmark::DoNotOptimize(DCG.totalWeight());
}
BENCHMARK(BM_DCGAddSample);

// Sharded variant: Arg is the shard count. Arg(1) should match
// BM_DCGAddSample (the single-shard fast path is the same code).
static void BM_DCGAddSampleSharded(benchmark::State &State) {
  prof::DynamicCallGraph DCG(static_cast<unsigned>(State.range(0)));
  uint32_t Site = 0;
  for (auto _ : State) {
    DCG.addSample({Site, Site % 37});
    Site = (Site + 1) & 1023;
  }
  benchmark::DoNotOptimize(DCG.totalWeight());
}
BENCHMARK(BM_DCGAddSampleSharded)->Arg(1)->Arg(8)->Arg(64);

// The VM's actual recording path: append into the per-thread
// SampleBuffer, flush a whole batch when it fills (one lock acquisition
// per 256 samples instead of per sample).
static void BM_DCGBufferedRecording(benchmark::State &State) {
  prof::DynamicCallGraph DCG(static_cast<unsigned>(State.range(0)));
  prof::SampleBuffer Buffer(256);
  uint32_t Site = 0;
  for (auto _ : State) {
    if (Buffer.append({Site, Site % 37}))
      Buffer.flushInto(DCG);
    Site = (Site + 1) & 1023;
  }
  Buffer.flushInto(DCG);
  benchmark::DoNotOptimize(DCG.totalWeight());
}
BENCHMARK(BM_DCGBufferedRecording)->Arg(1)->Arg(8);

// Concurrent producers: each benchmark thread owns a SampleBuffer and
// batch-flushes into one shared 8-shard repository. Single-core
// containers still exercise the interleaving; on multi-core hosts the
// shards keep writers out of each other's way.
static void BM_DCGConcurrentFlush(benchmark::State &State) {
  static prof::DynamicCallGraph Repo(8);
  prof::SampleBuffer Buffer(256);
  uint32_t Site = static_cast<uint32_t>(State.thread_index()) << 12;
  for (auto _ : State) {
    if (Buffer.append({Site, Site % 37}))
      Buffer.flushInto(Repo);
    Site = (Site & ~uint32_t(1023)) | ((Site + 1) & 1023);
  }
  Buffer.flushInto(Repo);
  benchmark::DoNotOptimize(Repo.totalWeight());
}
BENCHMARK(BM_DCGConcurrentFlush)->Threads(1)->Threads(4)->Threads(8);

// Snapshot materialization after a mutation (the epoch cache misses
// every iteration: sort + copy of 1024 edges).
static void BM_DCGSnapshotRebuild(benchmark::State &State) {
  prof::DynamicCallGraph DCG;
  for (uint32_t Site = 0; Site != 1024; ++Site)
    DCG.addSample({Site, Site % 37});
  for (auto _ : State) {
    DCG.addSample({0, 0}); // bump the epoch
    benchmark::DoNotOptimize(DCG.snapshot().totalWeight());
  }
}
BENCHMARK(BM_DCGSnapshotRebuild);

// Epoch-cached snapshot: no mutation between calls, so snapshot() is a
// shared_ptr copy under the shard locks.
static void BM_DCGSnapshotCached(benchmark::State &State) {
  prof::DynamicCallGraph DCG;
  for (uint32_t Site = 0; Site != 1024; ++Site)
    DCG.addSample({Site, Site % 37});
  for (auto _ : State)
    benchmark::DoNotOptimize(DCG.snapshot().totalWeight());
}
BENCHMARK(BM_DCGSnapshotCached);

static void BM_OverlapMetric(benchmark::State &State) {
  RandomEngine RNG(7);
  prof::DynamicCallGraph A, B;
  for (int I = 0; I != 1000; ++I) {
    prof::CallEdge E{static_cast<uint32_t>(RNG.nextBelow(512)),
                     static_cast<uint32_t>(RNG.nextBelow(64))};
    A.addSample(E, RNG.nextBelow(100) + 1);
    if (RNG.nextBool(0.7))
      B.addSample(E, RNG.nextBelow(100) + 1);
  }
  prof::DCGSnapshot SA = A.snapshot(), SB = B.snapshot();
  for (auto _ : State)
    benchmark::DoNotOptimize(prof::overlap(SA, SB));
}
BENCHMARK(BM_OverlapMetric);

static void BM_InterpreterThroughput(benchmark::State &State) {
  bench::timeJessSlices(State, {});
}
BENCHMARK(BM_InterpreterThroughput);

static void BM_InterpreterWithCBS(benchmark::State &State) {
  exp::RunSpec Spec;
  Spec.Config.Profiler = exp::chosenCBS(vm::Personality::JikesRVM);
  bench::timeJessSlices(State, std::move(Spec));
}
BENCHMARK(BM_InterpreterWithCBS);

// BM_InterpreterWithCBS vs this: the cost of an installed trace sink.
// Compare BM_InterpreterWithCBS against BM_InterpreterThroughput for
// the no-sink case — the telemetry rework must keep them identical
// (the only added work is one null check on already-slow paths).
static void BM_InterpreterWithRingSink(benchmark::State &State) {
  tel::RingBufferSink Sink;
  exp::RunSpec Spec;
  Spec.Config.Profiler = exp::chosenCBS(vm::Personality::JikesRVM);
  Spec.Config.Trace = &Sink;
  bench::timeJessSlices(State, std::move(Spec));
}
BENCHMARK(BM_InterpreterWithRingSink);

static void BM_CounterIncrement(benchmark::State &State) {
  tel::MetricRegistry Registry;
  tel::Counter &C = Registry.counter("bench.counter");
  for (auto _ : State)
    benchmark::DoNotOptimize(++C);
}
BENCHMARK(BM_CounterIncrement);

static void BM_HistogramRecord(benchmark::State &State) {
  tel::MetricRegistry Registry;
  tel::Histogram &H = Registry.histogram("bench.histogram");
  uint64_t V = 0;
  for (auto _ : State) {
    H.record(V);
    V = (V + 97) & 8191;
  }
  benchmark::DoNotOptimize(H.count());
}
BENCHMARK(BM_HistogramRecord);

static void BM_RingSinkEvent(benchmark::State &State) {
  tel::RingBufferSink Sink;
  uint64_t Cycle = 0;
  for (auto _ : State)
    Sink.event(tel::TraceEvent::sample(++Cycle, 0, 5, 7));
  benchmark::DoNotOptimize(Sink.totalEvents());
}
BENCHMARK(BM_RingSinkEvent);

// benchmark::Initialize consumes the flags it understands and compacts
// argv; anything left over is strict-rejected like every other binary.
int main(int Argc, char **Argv) {
  benchmark::Initialize(&Argc, Argv);
  support::ArgParser Args(Argc, Argv);
  Args.finish();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
