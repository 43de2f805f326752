//===- profiling/DynamicCallGraph.cpp - Live profile repository -----------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//

#include "profiling/DynamicCallGraph.h"

#include "support/ErrorHandling.h"

#include <algorithm>

using namespace cbs;
using namespace cbs::prof;

void DynamicCallGraph::addSample(CallEdge Edge, uint64_t Count) {
  // A zero-count sample must not create a resident weight-0 entry: it
  // would survive until the next decay truncation and meanwhile bloat
  // every snapshot, serialized profile, and overlap computation.
  if (Count == 0)
    return;
  Weights[Edge] += Count;
  Total += Count;
  ++Epoch;
}

void DynamicCallGraph::addBatch(const CallEdge *Edges, size_t N) {
  if (N == 0)
    return;
  for (size_t I = 0; I != N; ++I)
    ++Weights[Edges[I]];
  Total += N;
  ++Epoch;
}

void DynamicCallGraph::merge(const DynamicCallGraph &Other) {
  // On self-merge every key is already present, so operator[] never
  // inserts (or rehashes) while the loop iterates, and each weight is
  // added to itself: doubling in place.
  for (const auto &[Edge, Weight] : Other.Weights)
    Weights[Edge] += Weight;
  Total += Other.Total;
  ++Epoch;
}

void DynamicCallGraph::decay(double Factor) {
  // Checked in release builds too: a factor >= 1 silently disables
  // decay (the profile grows forever) and a factor <= 0 wipes the
  // repository — both are caller bugs worth failing loudly on.
  if (!(Factor > 0 && Factor < 1))
    reportFatalError("DynamicCallGraph::decay factor must be in (0, 1), got " +
                     std::to_string(Factor));
  Total = 0;
  for (auto It = Weights.begin(); It != Weights.end();) {
    uint64_t Decayed =
        static_cast<uint64_t>(static_cast<double>(It->second) * Factor);
    if (Decayed == 0) {
      It = Weights.erase(It);
      continue;
    }
    It->second = Decayed;
    Total += Decayed;
    ++It;
  }
  ++Epoch;
}

void DynamicCallGraph::clear() {
  Weights.clear();
  Total = 0;
  ++Epoch;
}

DCGSnapshot DynamicCallGraph::snapshot() const {
  if (CacheEpoch == Epoch)
    return Cache;

  auto D = std::make_shared<DCGSnapshot::Data>();
  D->Edges.assign(Weights.begin(), Weights.end());
  std::sort(D->Edges.begin(), D->Edges.end(),
            [](const DCGSnapshot::Edge &L, const DCGSnapshot::Edge &R) {
              return L.first < R.first;
            });
  D->Total = Total;
  D->Epoch = Epoch;

  Cache = DCGSnapshot(std::move(D));
  CacheEpoch = Epoch;
  return Cache;
}
