//===- profiling/DCGSnapshot.h - Immutable DCG view -------------*- C++ -*-===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An immutable, order-canonicalized view of a DynamicCallGraph at a
/// point in time. The live repository is a hash map that samplers
/// mutate while the program runs; every consumer (inline oracles, the
/// overlap metric, serialization, bench tables) reads through a
/// snapshot instead, so a reader's view never changes under it and two
/// snapshots with equal content compare and serialize byte-identically
/// regardless of flush order.
///
/// A snapshot is a shared_ptr to const data: copying one is O(1) and
/// a snapshot stays valid after the live graph mutates, decays, or is
/// destroyed. Edges are held sorted in canonical key order
/// (CallEdge::operator<).
///
//===----------------------------------------------------------------------===//

#ifndef CBSVM_PROFILING_DCGSNAPSHOT_H
#define CBSVM_PROFILING_DCGSNAPSHOT_H

#include "profiling/CallEdge.h"

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace cbs::bc {
class Program;
}

namespace cbs::prof {

class DynamicCallGraph;

class DCGSnapshot {
public:
  using Edge = std::pair<CallEdge, uint64_t>;

  /// An empty snapshot (epoch 0). What a freshly constructed repository
  /// would materialize.
  DCGSnapshot() = default;

  /// Builds a snapshot directly from an edge list (any order; sorted
  /// into canonical order here). Duplicate edges are summed. Intended
  /// for deserialization and tests; live profiles come from
  /// DynamicCallGraph::snapshot().
  static DCGSnapshot fromEdges(std::vector<Edge> Edges);

  /// Raw weight of \p E (0 if absent). Binary search over the sorted
  /// edge vector.
  uint64_t weight(CallEdge E) const;

  /// Sum of all edge weights.
  uint64_t totalWeight() const { return D ? D->Total : 0; }

  /// Number of distinct edges.
  size_t numEdges() const { return D ? D->Edges.size() : 0; }

  bool empty() const { return numEdges() == 0; }

  /// Edge weight as a fraction of the total (0 if the snapshot is
  /// empty).
  double fraction(CallEdge E) const;

  /// All edges at \p Site with their weights, heaviest first (weight
  /// descending, key ascending on ties). This is the per-site receiver
  /// distribution the new inliner's 40% rule inspects.
  std::vector<Edge> siteDistribution(bc::SiteId Site) const;

  /// The callee holding at least \p MinSharePct percent of \p Site's
  /// receiver distribution, or InvalidMethodId when no callee clears
  /// the bar (ties broken towards the canonically smaller edge, as in
  /// siteDistribution). A site with no recorded edges also returns
  /// InvalidMethodId: absence of evidence is not loss of dominance —
  /// callers gate on \p SiteWeight (the site's total recorded weight,
  /// written on return) before treating the answer as authoritative.
  bc::MethodId dominantCallee(bc::SiteId Site, double MinSharePct,
                              uint64_t &SiteWeight) const;

  /// Canonical iteration order: edges sorted by key. The returned
  /// reference is valid for the lifetime of any copy of this snapshot.
  const std::vector<Edge> &sortedEdges() const;

  /// Deterministic iteration in canonical (sorted key) order.
  template <typename Fn> void forEachEdge(Fn &&Callback) const {
    for (const auto &[E, W] : sortedEdges())
      Callback(E, W);
  }

  /// Mutation count of the live repository when this snapshot was
  /// taken. Two snapshots of the same repository with equal epochs have
  /// equal content.
  uint64_t epoch() const { return D ? D->Epoch : 0; }

  /// Human-readable dump resolving names through \p P, heaviest first,
  /// at most \p MaxEdges rows.
  std::string str(const bc::Program &P, size_t MaxEdges = 32) const;

private:
  friend class DynamicCallGraph;

  struct Data {
    std::vector<Edge> Edges; ///< sorted by CallEdge key
    uint64_t Total = 0;
    uint64_t Epoch = 0;
  };

  explicit DCGSnapshot(std::shared_ptr<const Data> D) : D(std::move(D)) {}

  std::shared_ptr<const Data> D;
};

} // namespace cbs::prof

#endif // CBSVM_PROFILING_DCGSNAPSHOT_H
