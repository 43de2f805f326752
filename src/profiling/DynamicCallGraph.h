//===- profiling/DynamicCallGraph.h - Live profile repository ---*- C++ -*-===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dynamic call graph (DCG): the live, write-side profile
/// repository. Call edges with observed weights in one hash map.
///
/// Writers are the samplers (through SampleBuffer::flushInto) and
/// merge/decay/clear. The only read surface for profile content is
/// snapshot(): an immutable DCGSnapshot in canonical edge order, cached
/// per epoch so repeated snapshots of an unchanged repository are O(1).
///
/// Weights are raw counts (samples or exhaustive executions) and sums
/// are commutative, so any order of flushes materializes the same
/// snapshot content.
///
//===----------------------------------------------------------------------===//

#ifndef CBSVM_PROFILING_DYNAMICCALLGRAPH_H
#define CBSVM_PROFILING_DYNAMICCALLGRAPH_H

#include "profiling/CallEdge.h"
#include "profiling/DCGSnapshot.h"

#include <unordered_map>

namespace cbs::prof {

/// A DynamicCallGraph is owned and used by one OS thread only: its VM's
/// (the VM runs all of its green threads on that one thread). Nothing
/// in it is synchronised; host threads start only in support::WorkerPool,
/// whose AOS compile jobs read immutable plans and whose ParallelRunner
/// tasks each build their own VM.
class DynamicCallGraph {
public:
  /// Adds \p Count observations of \p Edge.
  void addSample(CallEdge Edge, uint64_t Count = 1);

  /// Adds one observation of every edge in [Edges, Edges + N): one
  /// epoch bump for the whole batch.
  void addBatch(const CallEdge *Edges, size_t N);

  /// Merges \p Other into this graph. Self-merge is well-defined and
  /// doubles every weight in place.
  void merge(const DynamicCallGraph &Other);

  /// Exponentially decays every edge weight by \p Factor in (0, 1);
  /// edges whose weight rounds to zero are dropped. Jikes RVM's AOS
  /// periodically decays its sample data so the profile tracks *recent*
  /// behaviour — without decay, a long-lived profile is dominated by
  /// history and adapts slowly to phase changes. A factor outside
  /// (0, 1) is a fatal usage error, enforced in release builds too
  /// (>= 1 would grow the profile forever; <= 0 would wipe it).
  void decay(double Factor);

  /// Removes all edges and weights.
  void clear();

  /// Sum of all edge weights.
  uint64_t totalWeight() const { return Total; }

  /// Number of distinct edges observed.
  size_t numEdges() const { return Weights.size(); }

  bool empty() const { return numEdges() == 0; }

  /// Mutation counter: bumped once per addSample/addBatch/merge/decay/
  /// clear. Snapshots carry the epoch they were taken at.
  uint64_t epoch() const { return Epoch; }

  /// Materializes an immutable snapshot in canonical edge order. Cached
  /// per epoch — repeated snapshots of an unchanged repository return
  /// the same O(1) handle.
  DCGSnapshot snapshot() const;

private:
  std::unordered_map<CallEdge, uint64_t, CallEdgeHash> Weights;
  uint64_t Total = 0;
  uint64_t Epoch = 0;

  /// Epoch-keyed snapshot cache, filled by snapshot().
  mutable DCGSnapshot Cache;
  mutable uint64_t CacheEpoch = ~uint64_t(0);
};

} // namespace cbs::prof

#endif // CBSVM_PROFILING_DYNAMICCALLGRAPH_H
