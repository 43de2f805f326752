//===- tests/ParallelRunnerTest.cpp - parallel engine tests --------------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
//
// The deterministic parallel experiment engine: job resolution, the
// every-index-exactly-once and strict-commit-order guarantees, metric
// merge ordering, and — the property everything else exists for —
// bitwise equality of experiment results between --jobs 1 and --jobs 8.
//
// The host thread pool both the runner and the AOS compile queue use,
// support::WorkerPool, is tested here too: at 0 threads a job runs
// deferred on the thread that waits for it.
//
// All suites here are named ParallelRunner* or WorkerPool* so `ctest -R
// '^(ParallelRunner|WorkerPool)'` selects exactly this file (the TSan
// stage of scripts/check.sh relies on that).
//
//===----------------------------------------------------------------------===//

#include "experiments/Experiments.h"
#include "experiments/ParallelRunner.h"
#include "support/WorkerPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <future>
#include <mutex>
#include <set>
#include <string>
#include <thread>

using namespace cbs;
using namespace cbs::exp;

namespace {

ParallelConfig withJobs(unsigned Jobs) {
  ParallelConfig Par;
  Par.Jobs = Jobs;
  return Par;
}

/// Restores (or clears) CBSVM_JOBS on scope exit so tests cannot leak
/// the variable into each other.
class ScopedJobsEnv {
public:
  explicit ScopedJobsEnv(const char *Value) {
    const char *Old = std::getenv("CBSVM_JOBS");
    HadOld = Old != nullptr;
    if (HadOld)
      OldValue = Old;
    if (Value)
      setenv("CBSVM_JOBS", Value, 1);
    else
      unsetenv("CBSVM_JOBS");
  }
  ~ScopedJobsEnv() {
    if (HadOld)
      setenv("CBSVM_JOBS", OldValue.c_str(), 1);
    else
      unsetenv("CBSVM_JOBS");
  }

private:
  bool HadOld;
  std::string OldValue;
};

} // namespace

TEST(ParallelRunnerJobs, ExplicitRequestWins) {
  ScopedJobsEnv Env("7");
  EXPECT_EQ(resolveJobs(3), 3u);
}

TEST(ParallelRunnerJobs, EnvironmentVariableApplies) {
  ScopedJobsEnv Env("7");
  EXPECT_EQ(resolveJobs(), 7u);
}

TEST(ParallelRunnerJobs, BogusEnvironmentFallsThrough) {
  unsigned Default;
  {
    ScopedJobsEnv Env(nullptr);
    Default = resolveJobs();
  }
  // A number with anything around it is not a number: it must fall
  // through to the default, not parse its digits.
  std::string Next = std::to_string(Default + 1);
  for (std::string Bad : {std::string("0"), std::string("-3"),
                          std::string("garbage"), std::string("9999"),
                          Next + "x", " " + Next}) {
    ScopedJobsEnv Env(Bad.c_str());
    EXPECT_EQ(resolveJobs(), Default) << "CBSVM_JOBS='" << Bad << "'";
  }
}

TEST(ParallelRunnerJobs, DefaultIsAtLeastOne) {
  ScopedJobsEnv Env(nullptr);
  EXPECT_GE(resolveJobs(), 1u);
}

TEST(WorkerPool, ZeroThreadsRunsEachJobOnTheCallerAtGet) {
  support::WorkerPool Pool(0);
  bool Ran = false;
  std::future<std::thread::id> Where = Pool.submit([&] {
    Ran = true;
    return std::this_thread::get_id();
  });
  EXPECT_FALSE(Ran) << "a 0-thread pool must defer the job to get()";
  EXPECT_EQ(Where.get(), std::this_thread::get_id());
  EXPECT_TRUE(Ran);
}

TEST(WorkerPool, WorkersRunEveryJobAndTheDestructorDrains) {
  constexpr int Jobs = 64;
  std::vector<std::future<int>> Results;
  std::atomic<int> Unwaited{0};
  {
    support::WorkerPool Pool(3);
    for (int I = 0; I != Jobs; ++I)
      Results.push_back(Pool.submit([I] { return I * I; }));
    for (int I = 0; I != Jobs; ++I)
      Pool.submit([&Unwaited] { ++Unwaited; });
  }
  for (int I = 0; I != Jobs; ++I)
    EXPECT_EQ(Results[I].get(), I * I);
  // Jobs nobody waited on still ran before the pool went away.
  EXPECT_EQ(Unwaited.load(), Jobs);
}

TEST(ParallelRunnerPool, EveryIndexRunsExactlyOnce) {
  constexpr size_t Tasks = 100;
  std::mutex M;
  std::multiset<size_t> Seen;
  ParallelRunner Runner(withJobs(4));
  Runner.run(Tasks, [&](ParallelRunner::TaskContext &Ctx) {
    std::lock_guard<std::mutex> Lock(M);
    Seen.insert(Ctx.Index);
  });
  ASSERT_EQ(Seen.size(), Tasks);
  for (size_t I = 0; I != Tasks; ++I)
    EXPECT_EQ(Seen.count(I), 1u) << "index " << I;
}

TEST(ParallelRunnerPool, CommitsInStrictIndexOrderOnCallingThread) {
  constexpr size_t Tasks = 64;
  const std::thread::id Caller = std::this_thread::get_id();
  std::vector<size_t> Order;
  ParallelRunner Runner(withJobs(8));
  Runner.run(
      Tasks, [](ParallelRunner::TaskContext &) {},
      [&](ParallelRunner::TaskContext &Ctx) {
        EXPECT_EQ(std::this_thread::get_id(), Caller);
        Order.push_back(Ctx.Index);
      });
  ASSERT_EQ(Order.size(), Tasks);
  for (size_t I = 0; I != Tasks; ++I)
    EXPECT_EQ(Order[I], I);
}

TEST(ParallelRunnerPool, ReusedRunnerKeepsItsWorkers) {
  // One runner across many regions of 1-6 tasks: the workers it starts
  // serve every later region, a one-task region runs on the caller, and
  // the commits match a jobs-1 runner's byte for byte.
  const std::thread::id Caller = std::this_thread::get_id();
  auto Regions = [&](ParallelRunner &Runner,
                     std::set<std::thread::id> &Threads) {
    std::mutex M;
    std::string Committed;
    for (size_t Region = 0; Region != 50; ++Region) {
      size_t Tasks = 1 + (Region * 7) % 6;
      std::vector<uint64_t> Slots(Tasks);
      Runner.run(
          Tasks,
          [&](ParallelRunner::TaskContext &Ctx) {
            uint64_t H = Region * 1000003 + Ctx.Index;
            for (int I = 0; I != 1000; ++I)
              H = H * 6364136223846793005ull + 1442695040888963407ull;
            Slots[Ctx.Index] = H;
            std::thread::id Self = std::this_thread::get_id();
            if (Tasks == 1) {
              EXPECT_EQ(Self, Caller) << "region " << Region;
              return;
            }
            std::lock_guard<std::mutex> Lock(M);
            Threads.insert(Self);
          },
          [&](ParallelRunner::TaskContext &Ctx) {
            Committed += std::to_string(Slots[Ctx.Index]) + ',';
          });
    }
    return Committed;
  };
  std::set<std::thread::id> SerialThreads, PooledThreads;
  ParallelRunner Serial(withJobs(1));
  ParallelRunner Pooled(withJobs(4));
  std::string Expected = Regions(Serial, SerialThreads);
  EXPECT_EQ(Regions(Pooled, PooledThreads), Expected);
  EXPECT_EQ(SerialThreads, std::set<std::thread::id>{Caller});
  EXPECT_GE(PooledThreads.size(), 1u);
  EXPECT_LE(PooledThreads.size(), 4u);
  EXPECT_EQ(PooledThreads.count(Caller), 0u)
      << "multi-task regions run on the pool's workers";
}

TEST(ParallelRunnerPool, ZeroTasksIsANoOp) {
  ParallelRunner Runner(withJobs(8));
  bool Ran = false;
  Runner.run(0, [&](ParallelRunner::TaskContext &) { Ran = true; },
             [&](ParallelRunner::TaskContext &) { Ran = true; });
  EXPECT_FALSE(Ran);
  EXPECT_EQ(Runner.lastRun().Tasks, 0u);
}

TEST(ParallelRunnerTelemetry, MetricsMergeInIndexOrder) {
  constexpr size_t Tasks = 16;
  tel::MetricRegistry Parent;
  ParallelConfig Par = withJobs(8);
  Par.Metrics = &Parent;
  ParallelRunner Runner(Par);
  Runner.run(Tasks, [](ParallelRunner::TaskContext &Ctx) {
    Ctx.Metrics.counter("t.count") += Ctx.Index;
    Ctx.Metrics.gauge("t.last") = Ctx.Index;
    Ctx.Metrics.histogram("t.hist").record(Ctx.Index);
  });
  // Counters accumulate across all tasks.
  ASSERT_NE(Parent.findCounter("t.count"), nullptr);
  EXPECT_EQ(uint64_t(*Parent.findCounter("t.count")),
            Tasks * (Tasks - 1) / 2);
  // Gauges are last-write-wins, and commit order makes "last" the
  // highest grid index no matter which worker finished last.
  ASSERT_NE(Parent.findGauge("t.last"), nullptr);
  EXPECT_EQ(uint64_t(*Parent.findGauge("t.last")), Tasks - 1);
  // Histograms merge pointwise.
  ASSERT_NE(Parent.findHistogram("t.hist"), nullptr);
  EXPECT_EQ(Parent.findHistogram("t.hist")->count(), Tasks);
  EXPECT_EQ(Parent.findHistogram("t.hist")->max(), Tasks - 1);
}

TEST(ParallelRunnerTelemetry, PublishMetricsAggregatesAcrossRegions) {
  tel::MetricRegistry R;
  ParallelRunner::RunStats A;
  A.Jobs = 4;
  A.Tasks = 10;
  A.WallMicros = 1000;
  A.BusyMicros = 3000;
  ParallelRunner::publishMetrics(R, A);
  ParallelRunner::RunStats B;
  B.Jobs = 4;
  B.Tasks = 6;
  B.WallMicros = 500;
  B.BusyMicros = 1500;
  ParallelRunner::publishMetrics(R, B);
  EXPECT_EQ(uint64_t(*R.findCounter("runner.tasks")), 16u);
  EXPECT_EQ(uint64_t(*R.findCounter("runner.wall_us")), 1500u);
  EXPECT_EQ(uint64_t(*R.findCounter("runner.busy_us")), 4500u);
  EXPECT_EQ(uint64_t(*R.findGauge("runner.jobs")), 4u);
  // Speedup recomputed from the accumulated totals: 4500/1500 = 3.00x.
  EXPECT_EQ(uint64_t(*R.findGauge("runner.speedup_x100")), 300u);
}

TEST(ParallelRunnerTelemetry, RunStatsAccountForEveryTask) {
  constexpr size_t Tasks = 12;
  ParallelRunner Runner(withJobs(3));
  Runner.run(Tasks, [](ParallelRunner::TaskContext &) {});
  const ParallelRunner::RunStats &S = Runner.lastRun();
  EXPECT_EQ(S.Tasks, Tasks);
  EXPECT_EQ(S.Jobs, 3u);
  EXPECT_GE(S.speedup(), 0.0);
}

TEST(ParallelRunnerDeterminism, MedianAccuracyBitwiseEqualAcrossJobs) {
  const wl::WorkloadInfo &W = *wl::findWorkload("jess");
  AccuracyCell Serial =
      measureAccuracyMedian(W, wl::InputSize::Small, vm::Personality::JikesRVM,
                            chosenCBS(vm::Personality::JikesRVM), 5, 1,
                            withJobs(1));
  AccuracyCell Parallel =
      measureAccuracyMedian(W, wl::InputSize::Small, vm::Personality::JikesRVM,
                            chosenCBS(vm::Personality::JikesRVM), 5, 1,
                            withJobs(8));
  // Bitwise, not approximate: the engine promises the identical
  // floating-point accumulation order.
  EXPECT_EQ(Serial.OverheadPct, Parallel.OverheadPct);
  EXPECT_EQ(Serial.AccuracyPct, Parallel.AccuracyPct);
  EXPECT_EQ(Serial.SamplesTaken, Parallel.SamplesTaken);
}

TEST(ParallelRunnerDeterminism, SweepBitwiseEqualAcrossJobs) {
  std::vector<const wl::WorkloadInfo *> Workloads = {
      wl::findWorkload("jess"), wl::findWorkload("db")};
  auto Sweep = [&](unsigned Jobs) {
    return runSweep(vm::Personality::JikesRVM, Workloads,
                    wl::InputSize::Small, {1, 3}, {1, 4}, 2, 1,
                    withJobs(Jobs));
  };
  SweepResult Serial = Sweep(1);
  SweepResult Parallel = Sweep(8);
  ASSERT_EQ(Serial.Cells.size(), Parallel.Cells.size());
  for (size_t S = 0; S != Serial.Cells.size(); ++S) {
    ASSERT_EQ(Serial.Cells[S].size(), Parallel.Cells[S].size());
    for (size_t T = 0; T != Serial.Cells[S].size(); ++T) {
      EXPECT_EQ(Serial.Cells[S][T].OverheadPct,
                Parallel.Cells[S][T].OverheadPct)
          << "cell " << S << "," << T;
      EXPECT_EQ(Serial.Cells[S][T].AccuracyPct,
                Parallel.Cells[S][T].AccuracyPct)
          << "cell " << S << "," << T;
      EXPECT_EQ(Serial.Cells[S][T].SamplesTaken,
                Parallel.Cells[S][T].SamplesTaken)
          << "cell " << S << "," << T;
    }
  }
}

TEST(ParallelRunnerDeterminism, ExperimentCountersMatchAcrossJobs) {
  const wl::WorkloadInfo &W = *wl::findWorkload("jess");
  auto Run = [&](unsigned Jobs) {
    tel::MetricRegistry Parent;
    ParallelConfig Par = withJobs(Jobs);
    Par.Metrics = &Parent;
    measureAccuracyMedian(W, wl::InputSize::Small, vm::Personality::JikesRVM,
                          chosenCBS(vm::Personality::JikesRVM), 4, 1, Par);
    ASSERT_NE(Parent.findCounter("exp.vm_runs"), nullptr);
    EXPECT_EQ(uint64_t(*Parent.findCounter("exp.vm_runs")), 8u);
  };
  Run(1);
  Run(8);
}
