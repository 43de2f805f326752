//===- experiments/ParallelRunner.h - Deterministic task pool ---*- C++ -*-===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The deterministic parallel experiment engine. Every table and figure
/// is a grid of independent runs — each run is a pure function of
/// (program, VMConfig, seed) — so the grid can fan out across cores
/// without changing a single output byte, provided the *observable*
/// side effects are committed in the serial order. This engine makes
/// that contract explicit:
///
///  - A support::WorkerPool of up to `jobs` threads executes tasks
///    keyed by grid index. The runner keeps its pool for its lifetime:
///    its workers start with its first region of two or more tasks (at
///    most one per task submitted) and are joined by its destructor, so
///    a runner reused across many regions starts its threads once.
///  - Each task owns a TaskContext holding its grid index and a private
///    tel::MetricRegistry. Workers never touch shared mutable state.
///  - Results are committed on the *calling* thread in strict index
///    order (task k's commit happens-after task k-1's), so reductions
///    over floating-point sums and metric merges are byte-identical to
///    the serial schedule regardless of job count.
///
/// Thread-ownership contract (see DESIGN.md §8):
///  - The task callback runs on a worker thread. It may mutate only its
///    TaskContext, task-local objects, and state owned exclusively by
///    its grid index (e.g. slot k of a preallocated results vector);
///    everything else it reads from the enclosing scope must be
///    immutable for the duration of run().
///  - The commit callback runs on the calling thread, in index order,
///    and is the only place allowed to touch shared accumulators.
///  - The parent registry is touched only by the calling thread (merges
///    happen at commit time, never from workers).
///
/// Jobs == 1, or a region of one task, takes the same path with no
/// thread: each task runs on the calling thread just before its commit,
/// the serial schedule.
///
/// One thread at a time may call run() on a runner (its pool takes one
/// submitter); a runner shared between threads is shared under a lock.
///
//===----------------------------------------------------------------------===//

#ifndef CBSVM_EXPERIMENTS_PARALLELRUNNER_H
#define CBSVM_EXPERIMENTS_PARALLELRUNNER_H

#include "telemetry/MetricRegistry.h"

#include <cstdint>
#include <functional>
#include <memory>

namespace cbs::support {
class WorkerPool;
}

namespace cbs::exp {

/// Resolves a job count: \p Requested if nonzero, else the CBSVM_JOBS
/// environment variable (a whole decimal number in 1..1024; anything
/// else is ignored), else std::thread::hardware_concurrency
/// (at least 1). This is the single knob behind every bench binary's
/// `--jobs N` flag.
unsigned resolveJobs(unsigned Requested = 0);

/// How a parallel region plugs into its caller: job count plus an
/// optional parent registry, non-owning and touched only from the
/// calling thread.
struct ParallelConfig {
  /// 0 = resolveJobs() (CBSVM_JOBS, then hardware concurrency).
  unsigned Jobs = 0;
  /// Merge target for per-task registries and the engine's own
  /// `runner.*` metrics (tasks, wall/busy micros, jobs, speedup).
  tel::MetricRegistry *Metrics = nullptr;
};

class ParallelRunner {
public:
  /// Everything a task owns. Created fresh per grid index; never shared
  /// between tasks or threads.
  struct TaskContext {
    /// The grid index this task is keyed by. A task that needs
    /// randomness seeds its own engine from it, so draws do not depend
    /// on the worker the task lands on.
    size_t Index = 0;
    /// Private per-run registry, merged into ParallelConfig::Metrics at
    /// commit time (index order).
    tel::MetricRegistry Metrics;
    /// Host-time cost of the task body (filled by the engine).
    uint64_t TaskMicros = 0;
  };

  using TaskFn = std::function<void(TaskContext &)>;
  using CommitFn = std::function<void(TaskContext &)>;

  explicit ParallelRunner(ParallelConfig Config = {});
  /// Joins the pool's workers, if any started.
  ~ParallelRunner();

  /// The resolved worker count.
  unsigned jobs() const { return Jobs; }

  /// Executes Task(ctx) for every index in [0, NumTasks) across the
  /// pool, then for each index, in strictly increasing order on the
  /// calling thread: merges ctx.Metrics into the parent registry and
  /// invokes \p Commit.
  /// Output is byte-identical to Jobs == 1 for any job count.
  void run(size_t NumTasks, const TaskFn &Task, const CommitFn &Commit = {});

  /// Host wall-clock accounting of the most recent run().
  struct RunStats {
    unsigned Jobs = 1;
    uint64_t Tasks = 0;
    uint64_t WallMicros = 0;
    /// Sum of per-task host times: the serial-equivalent cost.
    uint64_t BusyMicros = 0;
    /// Busy / wall — the realized parallel speedup.
    double speedup() const {
      return WallMicros == 0
                 ? 1.0
                 : static_cast<double>(BusyMicros) /
                       static_cast<double>(WallMicros);
    }
  };
  const RunStats &lastRun() const { return Last; }

  /// Publishes the engine's accumulated accounting as `runner.*`
  /// metrics into \p R: counters runner.tasks / runner.wall_us /
  /// runner.busy_us plus gauges runner.jobs and runner.speedup_x100
  /// (recomputed from the registry's accumulated totals, so repeated
  /// regions aggregate). Host-time values are nondeterministic by
  /// nature and must never feed result tables.
  static void publishMetrics(tel::MetricRegistry &R, const RunStats &Stats);

private:
  void commit(TaskContext &Ctx, const CommitFn &Commit);

  ParallelConfig Config;
  unsigned Jobs;
  RunStats Last;
  /// Created at the first multi-task region; null until then.
  std::unique_ptr<support::WorkerPool> Pool;
};

} // namespace cbs::exp

#endif // CBSVM_EXPERIMENTS_PARALLELRUNNER_H
