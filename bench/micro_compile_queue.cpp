//===- bench/micro_compile_queue.cpp - compile pipeline cost --------------------===//
//
// Part of the CBSVM project.
//
// Host-time microbenchmarks of the background compile pipeline: the
// queue's enqueue/popReady/coalesce/pendingLevel operations at realistic
// depths (the queue is linear-scanned on the VM thread, so these bound
// the per-yieldpoint cost when requests are pending), the worker pool's
// submit-to-get round trip, and — the acceptance gate — whole-VM
// throughput with the adaptive system attached at jobs 0 vs jobs 4.
// The jobs pair must be within noise of each other: worker threads only
// move the opt::compileMethod call off the VM thread, they never add
// virtual-time work.
//
//===----------------------------------------------------------------------===//

#include "aos/AdaptiveSystem.h"
#include "aos/CompileQueue.h"
#include "opt/InlineOracle.h"
#include "support/ArgParser.h"
#include "vm/VirtualMachine.h"
#include "workloads/Workloads.h"

#include <benchmark/benchmark.h>

using namespace cbs;

namespace {

aos::CompileRequest makeRequest(bc::MethodId Method, double Priority,
                                aos::CompileQueue &Q) {
  aos::CompileRequest R;
  R.Method = Method;
  R.Level = 1;
  R.Priority = Priority;
  R.Seq = Q.nextSeq();
  return R;
}

} // namespace

// Enqueue + popReady round trip with Arg(0) other entries resident: the
// linear scans the VM thread pays at a yieldpoint with work pending.
static void BM_QueueEnqueuePop(benchmark::State &State) {
  const size_t Resident = static_cast<size_t>(State.range(0));
  aos::CompileQueue Q(Resident + 1);
  for (size_t I = 0; I != Resident; ++I)
    // Never ready: the resident entries only pay scan cost.
    [&] {
      aos::CompileRequest R = makeRequest(static_cast<bc::MethodId>(I), 5, Q);
      R.ReadyCycle = UINT64_MAX;
      Q.enqueue(std::move(R));
    }();
  uint32_t Method = 1'000;
  for (auto _ : State) {
    Q.enqueue(makeRequest(++Method, 9, Q));
    benchmark::DoNotOptimize(Q.popReady(/*Now=*/UINT64_MAX - 1));
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_QueueEnqueuePop)->Arg(0)->Arg(4)->Arg(16)->Arg(64);

// A duplicate request coalescing into a full queue of Arg(0) entries.
static void BM_QueueCoalesce(benchmark::State &State) {
  const size_t Depth = static_cast<size_t>(State.range(0));
  aos::CompileQueue Q(Depth);
  for (size_t I = 0; I != Depth; ++I) {
    aos::CompileRequest R = makeRequest(static_cast<bc::MethodId>(I), 5, Q);
    R.ReadyCycle = UINT64_MAX;
    Q.enqueue(std::move(R));
  }
  double Priority = 6;
  for (auto _ : State) {
    // Same method, rising priority: always hits the coalesce path.
    aos::CompileRequest R =
        makeRequest(static_cast<bc::MethodId>(Depth - 1), Priority, Q);
    Priority += 1e-9;
    benchmark::DoNotOptimize(Q.enqueue(std::move(R)));
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_QueueCoalesce)->Arg(4)->Arg(16)->Arg(64);

static void BM_QueuePendingLevel(benchmark::State &State) {
  const size_t Depth = static_cast<size_t>(State.range(0));
  aos::CompileQueue Q(Depth);
  for (size_t I = 0; I != Depth; ++I) {
    aos::CompileRequest R = makeRequest(static_cast<bc::MethodId>(I), 5, Q);
    R.ReadyCycle = UINT64_MAX;
    Q.enqueue(std::move(R));
  }
  uint32_t Method = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(Q.pendingLevel(Method % (Depth * 2)));
    ++Method;
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_QueuePendingLevel)->Arg(4)->Arg(16)->Arg(64);

// Worker-pool round trip: submit one compile and block on the future.
// This is the wall-clock latency a jobs>=1 install point pays when the
// worker has not finished yet (the worst case; usually it has).
static void BM_WorkerPoolRoundTrip(benchmark::State &State) {
  bc::Program P = wl::buildJess(wl::InputSize::Small, 1);
  aos::CompileWorkerPool Pool(P, vm::CostModel(), opt::CompileOptions(),
                              /*NumThreads=*/2);
  auto Plan = std::make_shared<const opt::InlinePlan>();
  for (auto _ : State)
    benchmark::DoNotOptimize(Pool.submit(/*Method=*/0, /*Level=*/1, Plan).get());
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_WorkerPoolRoundTrip);

namespace {

// Whole-VM throughput with the adaptive system attached. The jobs 0/4
// pair is the acceptance gate: identical virtual-time work, so host
// throughput must match within noise (workers only overlap the
// compileMethod calls).
void runWithAOS(benchmark::State &State, uint32_t CompileJobs) {
  bc::Program P = wl::buildJess(wl::InputSize::Steady, 1);
  vm::VMConfig Config;
  Config.Profiler.Kind = vm::ProfilerKind::CBS;
  Config.Profiler.CBS.Stride = 3;
  Config.Profiler.CBS.SamplesPerTick = 16;
  static opt::NewJikesOracle Oracle;
  aos::AOSConfig AC;
  AC.CompileJobs = CompileJobs;
  aos::AdaptiveSystem AOS(&Oracle, AC);
  vm::VirtualMachine VM(P, Config);
  VM.setClient(&AOS);
  VM.run(1'000'000); // Warm the code cache.
  for (auto _ : State) {
    uint64_t Before = VM.stats().Instructions;
    VM.run(1'000'000);
    benchmark::DoNotOptimize(VM.stats().Instructions - Before);
  }
  // One iteration is a 1M-virtual-cycle slice: virtual cycles per host
  // second.
  State.counters["vcycles"] =
      benchmark::Counter(static_cast<double>(State.iterations()) * 1e6,
                         benchmark::Counter::kIsRate);
}

} // namespace

static void BM_InterpreterAOSJobs0(benchmark::State &State) {
  runWithAOS(State, /*CompileJobs=*/0);
}
BENCHMARK(BM_InterpreterAOSJobs0);

static void BM_InterpreterAOSJobs4(benchmark::State &State) {
  runWithAOS(State, /*CompileJobs=*/4);
}
BENCHMARK(BM_InterpreterAOSJobs4);

int main(int Argc, char **Argv) {
  benchmark::Initialize(&Argc, Argv);
  support::ArgParser Args(Argc, Argv);
  Args.finish();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
