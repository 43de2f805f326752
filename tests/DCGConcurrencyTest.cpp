//===- tests/DCGConcurrencyTest.cpp - sharded DCG concurrency tests -------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
//
// Real OS-thread stress over the sharded profile repository: concurrent
// buffered writers, snapshot isolation under mutation, and the
// determinism contract — an 8-shard repository written by racing
// threads serializes byte-identically to a serial 1-shard one. These
// are the tests the CBSVM_SANITIZE=thread stage of scripts/check.sh
// runs under TSan.
//
//===----------------------------------------------------------------------===//

#include "profiling/DynamicCallGraph.h"
#include "profiling/ProfileCodec.h"
#include "profiling/SampleBuffer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

using namespace cbs;
using namespace cbs::prof;

namespace {

/// The deterministic per-thread workload: thread T's I-th sample. Keeps
/// edges overlapping across threads so shards and map slots contend.
CallEdge edgeFor(unsigned Thread, unsigned I) {
  uint32_t Site = (I * 7 + Thread * 3) % 97;
  return {Site, Site % 11};
}

} // namespace

TEST(DCGConcurrency, ConcurrentBufferedWritersLoseNothing) {
  constexpr unsigned NumThreads = 8;
  constexpr unsigned SamplesPerThread = 20'000;
  DynamicCallGraph Repo(8);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&Repo, T] {
      SampleBuffer Buffer(64);
      for (unsigned I = 0; I != SamplesPerThread; ++I)
        if (Buffer.append(edgeFor(T, I)))
          Buffer.flushInto(Repo);
      Buffer.flushInto(Repo);
      EXPECT_EQ(Buffer.droppedCount(), 0u);
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Repo.totalWeight(), uint64_t(NumThreads) * SamplesPerThread);
}

TEST(DCGConcurrency, UnbufferedWritersAndMergeRace) {
  // addSample and merge from different threads, no buffers: the raw
  // shard-locking paths.
  DynamicCallGraph Repo(4);
  DynamicCallGraph Side;
  for (unsigned I = 0; I != 100; ++I)
    Side.addSample(edgeFor(9, I));
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != 4; ++T)
    Threads.emplace_back([&Repo, T] {
      for (unsigned I = 0; I != 5'000; ++I)
        Repo.addSample(edgeFor(T, I));
    });
  Threads.emplace_back([&Repo, &Side] {
    for (unsigned I = 0; I != 50; ++I)
      Repo.merge(Side);
  });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Repo.totalWeight(), 4u * 5'000 + 50u * Side.totalWeight());
}

TEST(DCGConcurrency, SnapshotsAreBatchAtomic) {
  // A reader snapshotting mid-run must always see a whole number of
  // flushed batches: addBatch holds every touched shard lock while a
  // snapshot needs all of them, so a half-applied batch is never
  // observable.
  constexpr unsigned BatchSize = 32;
  constexpr unsigned NumBatches = 400;
  DynamicCallGraph Repo(8);
  std::atomic<bool> Done{false};
  std::thread Writer([&] {
    SampleBuffer Buffer(BatchSize);
    for (unsigned I = 0; I != NumBatches * BatchSize; ++I)
      if (Buffer.append(edgeFor(0, I)))
        Buffer.flushInto(Repo);
    Buffer.flushInto(Repo);
    Done.store(true, std::memory_order_release);
  });
  // Loop until the writer is done AND we got at least one snapshot in:
  // under load the writer can finish before this thread is scheduled,
  // and a post-completion snapshot still must see whole batches.
  unsigned Reads = 0;
  while (!Done.load(std::memory_order_acquire) || Reads == 0) {
    DCGSnapshot S = Repo.snapshot();
    EXPECT_EQ(S.totalWeight() % BatchSize, 0u)
        << "snapshot observed a torn batch";
    ++Reads;
  }
  Writer.join();
  EXPECT_GT(Reads, 0u);
  EXPECT_EQ(Repo.snapshot().totalWeight(),
            uint64_t(NumBatches) * BatchSize);
}

TEST(DCGConcurrency, SnapshotIsImmutableUnderConcurrentWrites) {
  DynamicCallGraph Repo(8);
  for (unsigned I = 0; I != 500; ++I)
    Repo.addSample(edgeFor(1, I));
  DCGSnapshot Before = Repo.snapshot();
  uint64_t FrozenTotal = Before.totalWeight();
  std::vector<DCGSnapshot::Edge> FrozenEdges = Before.sortedEdges();
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != 4; ++T)
    Threads.emplace_back([&Repo, T] {
      for (unsigned I = 0; I != 2'000; ++I)
        Repo.addSample(edgeFor(T, I));
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Before.totalWeight(), FrozenTotal);
  EXPECT_EQ(Before.sortedEdges(), FrozenEdges);
  EXPECT_GT(Repo.snapshot().totalWeight(), FrozenTotal);
}

TEST(DCGConcurrency, ShardedConcurrentMatchesSerialBitwise) {
  // The determinism contract behind the --dcg-shards axis of
  // DeterminismMatrixTest, at the repository level: the same
  // logical samples produce byte-identical serialized profiles whether
  // they went through 1 shard on 1 thread or 8 shards on 8 racing
  // threads, in any interleaving.
  constexpr unsigned NumThreads = 8;
  constexpr unsigned SamplesPerThread = 10'000;
  DynamicCallGraph Serial(1);
  for (unsigned T = 0; T != NumThreads; ++T)
    for (unsigned I = 0; I != SamplesPerThread; ++I)
      Serial.addSample(edgeFor(T, I));

  DynamicCallGraph Sharded(8);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&Sharded, T] {
      SampleBuffer Buffer(128);
      for (unsigned I = 0; I != SamplesPerThread; ++I)
        if (Buffer.append(edgeFor(T, I)))
          Buffer.flushInto(Sharded);
      Buffer.flushInto(Sharded);
    });
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(ProfileCodec::encode(Sharded.snapshot()),
            ProfileCodec::encode(Serial.snapshot()));
}

TEST(DCGConcurrency, ConcurrentSnapshotsSeeMonotoneTotals) {
  // Weights only grow while no decay/clear runs, so a reader's
  // successive snapshots must never go backwards.
  DynamicCallGraph Repo(8);
  std::atomic<bool> Done{false};
  std::thread Writer([&] {
    for (unsigned I = 0; I != 30'000; ++I)
      Repo.addSample(edgeFor(2, I));
    Done.store(true, std::memory_order_release);
  });
  uint64_t Last = 0;
  while (!Done.load(std::memory_order_acquire)) {
    uint64_t Now = Repo.snapshot().totalWeight();
    EXPECT_GE(Now, Last);
    Last = Now;
  }
  Writer.join();
  EXPECT_EQ(Repo.snapshot().totalWeight(), 30'000u);
}
