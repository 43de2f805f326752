//===- support/WorkerPool.cpp - The one host thread pool -------------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//

#include "support/WorkerPool.h"

#include <utility>

using namespace cbs::support;

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> L(M);
    ShuttingDown = true;
  }
  CV.notify_all();
  for (std::thread &T : Workers)
    T.join();
}

void WorkerPool::enqueue(std::function<void()> Job) {
  {
    std::lock_guard<std::mutex> L(M);
    Jobs.push_back(std::move(Job));
  }
  // A worker started here finds its job already queued, so it never
  // sleeps before its first job. Workers belongs to the owner's thread.
  if (Workers.size() < MaxThreads)
    Workers.emplace_back([this] { workerLoop(); });
  else
    CV.notify_one();
}

void WorkerPool::workerLoop() {
  for (;;) {
    std::function<void()> Job;
    {
      std::unique_lock<std::mutex> L(M);
      CV.wait(L, [this] { return ShuttingDown || !Jobs.empty(); });
      if (Jobs.empty())
        return; // shutting down with nothing left to drain
      Job = std::move(Jobs.front());
      Jobs.pop_front();
    }
    Job();
  }
}
