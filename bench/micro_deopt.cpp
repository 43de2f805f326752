//===- bench/micro_deopt.cpp - deoptimization path cost -------------------------===//
//
// Part of the CBSVM project.
//
// Host-time microbenchmarks of the deoptimization machinery: the code
// cache's invalidate/reinstall round trip (the bookkeeping a deopt pays
// on the VM thread), and whole-VM throughput with guard policing off,
// on, and under the forced-invalidation storm. The off/on pair bounds
// the cost of arming the subsystem on a stable workload (it should be
// near zero: policing is a per-tick scan of tracked versions); the
// storm row is the worst case, recompiling at every yieldpoint.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "bytecode/Builder.h"
#include "vm/CodeCache.h"

#include <benchmark/benchmark.h>

using namespace cbs;

namespace {

bc::Program tinyProgram() {
  bc::ProgramBuilder PB;
  bc::MethodId A = PB.declareStatic("leaf", {}, /*HasResult=*/true);
  {
    bc::MethodBuilder MB = PB.defineMethod(A);
    MB.work(10).iconst(1).iret();
    MB.finish();
  }
  bc::MethodId Main = PB.declareStatic("main");
  {
    bc::MethodBuilder MB = PB.defineMethod(Main);
    MB.invokeStatic(A).print();
    MB.finish();
  }
  return PB.finish(Main);
}

} // namespace

// Install + invalidate: the cache-side cost of one deoptimization
// (retire to graveyard, bump the method's epoch, accounting). The
// fresh cache per iteration bounds graveyard growth; its construction
// is constant background cost in every iteration.
static void BM_CacheInstallInvalidate(benchmark::State &State) {
  bc::Program P = tinyProgram();
  vm::CostModel Costs;
  for (auto _ : State) {
    vm::CodeCache Cache(P);
    Cache.install(vm::CodeCache::compileBaseline(P, 0, 1, Costs));
    benchmark::DoNotOptimize(Cache.invalidate(0));
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_CacheInstallInvalidate);

// The full deopt round trip: invalidate, then recompile and reinstall
// the replacement (what the repair request pays at its install point).
static void BM_CacheDeoptRoundTrip(benchmark::State &State) {
  bc::Program P = tinyProgram();
  vm::CostModel Costs;
  for (auto _ : State) {
    vm::CodeCache Cache(P);
    Cache.install(vm::CodeCache::compileBaseline(P, 0, 1, Costs));
    Cache.invalidate(0);
    benchmark::DoNotOptimize(
        Cache.install(vm::CodeCache::compileBaseline(P, 0, 1, Costs)));
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_CacheDeoptRoundTrip);

namespace {

// Whole-VM host throughput with the adaptive system attached and the
// requested deopt configuration.
void runWithDeopt(benchmark::State &State, bool Enabled, bool Storm) {
  exp::RunSpec Spec{.AOS = aos::AOSConfig()};
  Spec.Config.Profiler = exp::chosenCBS(vm::Personality::JikesRVM);
  Spec.AOS->Deopt.Enabled = Enabled;
  Spec.AOS->Deopt.ForceStormForTesting = Storm;
  bench::timeJessSlices(State, std::move(Spec));
}

} // namespace

static void BM_VMDeoptOff(benchmark::State &State) {
  runWithDeopt(State, /*Enabled=*/false, /*Storm=*/false);
}
BENCHMARK(BM_VMDeoptOff);

static void BM_VMDeoptPolicing(benchmark::State &State) {
  runWithDeopt(State, /*Enabled=*/true, /*Storm=*/false);
}
BENCHMARK(BM_VMDeoptPolicing);

static void BM_VMDeoptStorm(benchmark::State &State) {
  runWithDeopt(State, /*Enabled=*/true, /*Storm=*/true);
}
BENCHMARK(BM_VMDeoptStorm);

int main(int Argc, char **Argv) {
  benchmark::Initialize(&Argc, Argv);
  support::ArgParser Args(Argc, Argv);
  Args.finish();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
