//===- bench/micro_quality_monitor.cpp - self-observability cost ---------------===//
//
// Part of the CBSVM project.
//
// Host-time microbenchmarks of the self-observability stack: the
// quality monitor's per-window cost as a function of profile size, the
// per-edge confidence math, the flight recorder's per-event cost, and
// — the acceptance gate — whole-VM interpretation throughput with the
// monitor disarmed vs armed. The disarmed pair must be within noise of
// each other (and of micro_profiler_hotpath's BM_InterpreterWithCBS):
// a VM constructed with Quality.EveryTicks == 0 allocates no monitor
// and the tick path pays one null check.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "profiling/DynamicCallGraph.h"
#include "profiling/QualityMonitor.h"
#include "telemetry/FlightRecorder.h"
#include "telemetry/MetricRegistry.h"

#include <benchmark/benchmark.h>

using namespace cbs;

// One monitor window over a snapshot of Arg(0) edges: the overlap scan,
// the hot-set sort, and the per-edge confidence pass.
static void BM_MonitorWindow(benchmark::State &State) {
  const uint32_t Edges = static_cast<uint32_t>(State.range(0));
  prof::DynamicCallGraph DCG;
  for (uint32_t Site = 0; Site != Edges; ++Site)
    DCG.addSample({Site, Site % 37}, Site % 100 + 1);
  prof::DCGSnapshot Snap = DCG.snapshot();
  tel::MetricRegistry Registry;
  prof::ProfileQualityMonitor Monitor({/*EveryTicks=*/1}, Registry);
  uint64_t Tick = 0;
  for (auto _ : State) {
    ++Tick;
    benchmark::DoNotOptimize(
        Monitor.onWindow(Snap, Tick, Tick * 200'000).OverlapPct);
  }
  State.SetItemsProcessed(State.iterations() * Edges);
}
BENCHMARK(BM_MonitorWindow)->Arg(16)->Arg(256)->Arg(4096);

static void BM_EdgeConfidence(benchmark::State &State) {
  uint64_t W = 1;
  for (auto _ : State) {
    benchmark::DoNotOptimize(prof::ProfileQualityMonitor::edgeConfidencePct(W));
    W = (W + 97) & 8191;
  }
}
BENCHMARK(BM_EdgeConfidence);

static void BM_FlightRecorderEvent(benchmark::State &State) {
  tel::FlightRecorder Recorder;
  uint64_t Cycle = 0;
  for (auto _ : State)
    Recorder.event(tel::TraceEvent::sample(++Cycle, 0, 5, 7));
  benchmark::DoNotOptimize(Recorder.totalEvents());
}
BENCHMARK(BM_FlightRecorderEvent);

static void BM_FlightRecorderWindowNote(benchmark::State &State) {
  tel::FlightRecorder Recorder;
  tel::RecorderWindow W;
  for (auto _ : State) {
    ++W.Index;
    Recorder.noteWindow(W);
  }
  benchmark::DoNotOptimize(Recorder.windows().size());
}
BENCHMARK(BM_FlightRecorderWindowNote);

namespace {

// The BM_InterpreterWithCBS configuration from micro_profiler_hotpath,
// with the monitor armed every EveryTicks ticks (0 = disarmed).
void runInterpreter(benchmark::State &State, uint32_t MonitorEveryTicks) {
  exp::RunSpec Spec;
  Spec.Config.Profiler = exp::chosenCBS(vm::Personality::JikesRVM);
  Spec.Config.Profiler.Quality.EveryTicks = MonitorEveryTicks;
  bench::timeJessSlices(State, std::move(Spec));
}

} // namespace

// The acceptance pair: disarmed must match micro_profiler_hotpath's
// BM_InterpreterWithCBS (same configuration, monitor code compiled in
// but never constructed).
static void BM_InterpreterCBSNoMonitor(benchmark::State &State) {
  runInterpreter(State, /*MonitorEveryTicks=*/0);
}
BENCHMARK(BM_InterpreterCBSNoMonitor);

static void BM_InterpreterCBSWithMonitor(benchmark::State &State) {
  runInterpreter(State, /*MonitorEveryTicks=*/8);
}
BENCHMARK(BM_InterpreterCBSWithMonitor);

int main(int Argc, char **Argv) {
  benchmark::Initialize(&Argc, Argv);
  support::ArgParser Args(Argc, Argv);
  Args.finish();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
