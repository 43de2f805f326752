//===- aos/CompileQueue.cpp - Background compile pipeline --------------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//

#include "aos/CompileQueue.h"

#include <algorithm>
#include <utility>

using namespace cbs;
using namespace cbs::aos;

EnqueueResult CompileQueue::enqueue(CompileRequest R,
                                    std::optional<CompileRequest> *Evicted) {
  // Coalesce: one pending entry per method. A higher-level request
  // supersedes the pending one wholesale (its plan, latency, and
  // compile result are for the wrong level); an equal-or-lower request
  // only raises the pending entry's priority.
  for (CompileRequest &E : Entries) {
    if (E.Method != R.Method)
      continue;
    if (R.Level > E.Level) {
      uint64_t Seq = E.Seq; // keep the original queue position
      double Priority = std::max(E.Priority, R.Priority);
      E = std::move(R);
      E.Seq = Seq;
      E.Priority = Priority;
    } else {
      E.Priority = std::max(E.Priority, R.Priority);
    }
    return EnqueueResult::Coalesced;
  }

  if (Entries.size() < Capacity) {
    Entries.push_back(std::move(R));
    return EnqueueResult::Added;
  }

  // Full: evict the lowest-priority entry if the newcomer outranks it
  // (ties keep the incumbent — it has seniority and possibly a compile
  // already in flight).
  auto Lowest = std::min_element(
      Entries.begin(), Entries.end(),
      [](const CompileRequest &L, const CompileRequest &R) {
        if (L.Priority != R.Priority)
          return L.Priority < R.Priority;
        return L.Seq > R.Seq; // youngest of the equally-cold entries
      });
  if (Lowest->Priority >= R.Priority)
    return EnqueueResult::Rejected;
  if (Evicted)
    *Evicted = std::move(*Lowest);
  *Lowest = std::move(R);
  return EnqueueResult::EvictedLowest;
}

std::optional<CompileRequest> CompileQueue::popReady(uint64_t Now) {
  auto Best = Entries.end();
  for (auto It = Entries.begin(); It != Entries.end(); ++It) {
    if (It->ReadyCycle > Now)
      continue;
    if (Best == Entries.end() || It->Priority > Best->Priority ||
        (It->Priority == Best->Priority && It->Seq < Best->Seq))
      Best = It;
  }
  if (Best == Entries.end())
    return std::nullopt;
  CompileRequest R = std::move(*Best);
  Entries.erase(Best);
  return R;
}

size_t CompileQueue::dropMethod(bc::MethodId Method) {
  size_t Before = Entries.size();
  Entries.erase(std::remove_if(Entries.begin(), Entries.end(),
                               [Method](const CompileRequest &E) {
                                 return E.Method == Method;
                               }),
                Entries.end());
  return Before - Entries.size();
}

int CompileQueue::pendingLevel(bc::MethodId Method) const {
  for (const CompileRequest &E : Entries)
    if (E.Method == Method)
      return E.Level;
  return -1;
}
