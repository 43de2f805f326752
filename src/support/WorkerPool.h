//===- support/WorkerPool.h - The one host thread pool ----------*- C++ -*-===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one place CBSVM starts host threads. Both knobs that run work in
/// parallel submit to a WorkerPool: the AOS compile queue
/// (`--compile-jobs N`, one pool per adaptive system) and
/// exp::ParallelRunner (`--jobs N`, one pool per runner, kept for the
/// runner's lifetime). The shard-determinism fuzz oracle keeps one
/// jobs-4 runner, and so one pool, for its own lifetime; campaign
/// workers take it in turns.
///
/// submit(Fn) returns a std::future for Fn's result. With N >= 1
/// threads the workers run queued jobs in submission order; each of the
/// first N submissions starts one worker, so a pool that is never given
/// a job starts no thread. The destructor lets the workers drain the
/// queue, then joins them. With 0 threads submit() returns a deferred
/// future: the job runs on the thread that calls get(), at that call —
/// the serial schedule, through the same interface. A job that is never
/// waited on at 0 threads never runs.
///
/// The owner submits from one thread at a time and destroys the pool
/// once it submits no more. A job must not wait on another job of the
/// same pool: with every worker waiting, no thread is left to run what
/// they wait on. Nested work takes its own pool.
///
//===----------------------------------------------------------------------===//

#ifndef CBSVM_SUPPORT_WORKERPOOL_H
#define CBSVM_SUPPORT_WORKERPOOL_H

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace cbs::support {

class WorkerPool {
public:
  /// A pool of up to \p NumThreads workers (none at 0).
  explicit WorkerPool(unsigned NumThreads) : MaxThreads(NumThreads) {}
  ~WorkerPool();

  WorkerPool(const WorkerPool &) = delete;
  WorkerPool &operator=(const WorkerPool &) = delete;

  template <typename Fn>
  std::future<std::invoke_result_t<Fn &>> submit(Fn Job) {
    using Result = std::invoke_result_t<Fn &>;
    if (MaxThreads == 0)
      return std::async(std::launch::deferred, std::move(Job));
    auto Task = std::make_shared<std::packaged_task<Result()>>(std::move(Job));
    std::future<Result> F = Task->get_future();
    enqueue([Task] { (*Task)(); });
    return F;
  }

private:
  void enqueue(std::function<void()> Job);
  void workerLoop();

  const unsigned MaxThreads;
  std::mutex M;
  std::condition_variable CV;
  std::deque<std::function<void()>> Jobs;
  bool ShuttingDown = false;
  std::vector<std::thread> Workers;
};

} // namespace cbs::support

#endif // CBSVM_SUPPORT_WORKERPOOL_H
