//===- profiling/SampleBuffer.h - Listener/organizer decoupling -*- C++ -*-===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's Jikes RVM implementation registers *listeners* that
/// capture raw samples and *organizers* that later process them into the
/// profile repository (§5.1: "the organizers that process the raw
/// profile data were unchanged: they simply process samples without
/// needing to know if the samples came from a listener that was
/// responding to time-based or counter-based events"). This buffer
/// reproduces that decoupling: the VM's sampling hook appends edges
/// cheaply (no map probe); the organizer flushes them into the
/// DynamicCallGraph as one batch per Capacity samples, not per sample.
///
/// Each VM thread owns one buffer. A buffer is strictly bounded: once
/// full, further appends are *dropped and counted* (droppedCount feeds
/// the dcg.dropped_samples metric) rather than growing the buffer or
/// vanishing silently. An owner that flushes whenever append() returns
/// true never drops. Capacity must be at least 1: a zero-capacity
/// buffer would drop every sample while telling its owner to
/// busy-flush an always-empty buffer, so it is a fatal configuration
/// error rather than a silent profile sink.
///
//===----------------------------------------------------------------------===//

#ifndef CBSVM_PROFILING_SAMPLEBUFFER_H
#define CBSVM_PROFILING_SAMPLEBUFFER_H

#include "profiling/DynamicCallGraph.h"
#include "support/ErrorHandling.h"

#include <vector>

namespace cbs::prof {

class SampleBuffer {
public:
  explicit SampleBuffer(size_t Capacity = 256) : Capacity(Capacity) {
    if (Capacity == 0)
      reportFatalError("SampleBuffer capacity must be at least 1");
    Pending.reserve(Capacity);
  }

  /// Appends one raw sample; returns true if the buffer is now full and
  /// the owner should call flushInto (the organizer step). An append
  /// into an already-full buffer drops the sample, counts it, and still
  /// returns true.
  bool append(CallEdge Edge) {
    if (Pending.size() >= Capacity) {
      ++Dropped;
      return true;
    }
    Pending.push_back(Edge);
    return Pending.size() >= Capacity;
  }

  /// Organizer: folds all pending samples into \p Repo as one batch
  /// and clears. A no-op (not counted as a flush) when empty.
  void flushInto(DynamicCallGraph &Repo) {
    if (Pending.empty())
      return;
    Repo.addBatch(Pending.data(), Pending.size());
    Pending.clear();
    ++Flushes;
  }

  size_t capacity() const { return Capacity; }
  size_t pendingCount() const { return Pending.size(); }

  /// Number of non-empty flushes performed.
  uint64_t flushCount() const { return Flushes; }

  /// Samples rejected because the buffer was full. These are lost
  /// profile data; the VM surfaces them as dcg.dropped_samples.
  uint64_t droppedCount() const { return Dropped; }

  /// Drops since the previous call (droppedCount stays cumulative).
  /// The VM folds the delta into its dcg.dropped_samples counter at
  /// each flush point.
  uint64_t takeDroppedDelta() {
    uint64_t Delta = Dropped - DroppedReported;
    DroppedReported = Dropped;
    return Delta;
  }

private:
  size_t Capacity;
  std::vector<CallEdge> Pending;
  uint64_t Flushes = 0;
  uint64_t Dropped = 0;
  uint64_t DroppedReported = 0;
};

} // namespace cbs::prof

#endif // CBSVM_PROFILING_SAMPLEBUFFER_H
