//===- experiments/ParallelRunner.cpp - Deterministic task pool ----------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//

#include "experiments/ParallelRunner.h"

#include "support/ArgParser.h"
#include "support/WorkerPool.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <future>
#include <memory>
#include <thread>
#include <vector>

using namespace cbs;
using namespace cbs::exp;

unsigned exp::resolveJobs(unsigned Requested) {
  if (Requested != 0)
    return Requested;
  // The whole value must be a decimal number: "4x" or " 4" is not 4.
  if (const char *Env = std::getenv("CBSVM_JOBS"))
    if (std::optional<uint64_t> V = support::parseWholeNumber(Env);
        V && *V >= 1 && *V <= 1024)
      return static_cast<unsigned>(*V);
  unsigned HW = std::thread::hardware_concurrency();
  return HW == 0 ? 1 : HW;
}

ParallelRunner::ParallelRunner(ParallelConfig Config)
    : Config(Config), Jobs(resolveJobs(Config.Jobs)) {}

ParallelRunner::~ParallelRunner() = default;

namespace {

uint64_t nowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

} // namespace

void ParallelRunner::commit(TaskContext &Ctx, const CommitFn &Commit) {
  // Calling thread only. Merge order is the index order, which makes
  // parent-registry contents independent of worker scheduling.
  if (Config.Metrics)
    Config.Metrics->merge(Ctx.Metrics);
  if (Commit)
    Commit(Ctx);
  Last.BusyMicros += Ctx.TaskMicros;
}

void ParallelRunner::run(size_t NumTasks, const TaskFn &Task,
                         const CommitFn &Commit) {
  Last = RunStats();
  Last.Jobs = Jobs;
  Last.Tasks = NumTasks;
  uint64_t WallStart = nowMicros();
  {
    // One loop for every job count: each task builds its context and
    // returns it through its future, and the calling thread commits the
    // futures in index order (pipelined: commits of early indices
    // overlap execution of later ones). A single worker could only run
    // what the calling thread runs itself, so jobs 1 (or one task)
    // defers each task to its get(): task and commit interleave per
    // index and no thread starts. Otherwise the tasks go to the
    // runner's pool, which starts its workers at the first such region
    // and keeps them until the runner is destroyed.
    bool OnWorkers = std::min<size_t>(Jobs, NumTasks) > 1;
    if (OnWorkers && !Pool)
      Pool = std::make_unique<support::WorkerPool>(Jobs);
    std::vector<std::future<std::unique_ptr<TaskContext>>> Results;
    Results.reserve(NumTasks);
    for (size_t I = 0; I != NumTasks; ++I) {
      auto Job = [&, I] {
        auto Ctx = std::make_unique<TaskContext>();
        Ctx->Index = I;
        uint64_t Start = nowMicros();
        Task(*Ctx);
        Ctx->TaskMicros = nowMicros() - Start;
        return Ctx;
      };
      Results.push_back(OnWorkers ? Pool->submit(Job)
                                  : std::async(std::launch::deferred, Job));
    }
    try {
      for (std::future<std::unique_ptr<TaskContext>> &Result : Results)
        commit(*Result.get(), Commit);
    } catch (...) {
      // Queued tasks reference this frame and the pool outlives it: let
      // them finish before unwinding.
      if (OnWorkers)
        for (std::future<std::unique_ptr<TaskContext>> &Result : Results)
          if (Result.valid())
            Result.wait();
      throw;
    }
  }
  Last.WallMicros = nowMicros() - WallStart;
  if (Config.Metrics)
    publishMetrics(*Config.Metrics, Last);
}

void ParallelRunner::publishMetrics(tel::MetricRegistry &R,
                                    const RunStats &Stats) {
  R.counter("runner.tasks") += Stats.Tasks;
  R.counter("runner.wall_us") += Stats.WallMicros;
  R.counter("runner.busy_us") += Stats.BusyMicros;
  R.gauge("runner.jobs") = Stats.Jobs;
  // Aggregate speedup over every region published so far.
  uint64_t Wall = R.counter("runner.wall_us");
  uint64_t Busy = R.counter("runner.busy_us");
  R.gauge("runner.speedup_x100") =
      Wall == 0 ? 100 : (Busy * 100 + Wall / 2) / Wall;
}
