//===- aos/DeoptController.cpp - Speculation guard policing ------------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//

#include "aos/DeoptController.h"

#include "profiling/DCGSnapshot.h"
#include "profiling/QualityMonitor.h"
#include "telemetry/TraceSink.h"
#include "vm/VirtualMachine.h"

#include <algorithm>

using namespace cbs;
using namespace cbs::aos;

void DeoptController::ensureSize(size_t NumMethods) {
  if (States.size() < NumMethods)
    States.resize(NumMethods);
}

void DeoptController::noteInstall(const vm::CompiledMethod &CM) {
  if (CM.Guards.empty() && !Config.ForceStormForTesting)
    return;
  ensureSize(CM.Id + 1);
  if (!States[CM.Id].Tracked) {
    States[CM.Id].Tracked = true;
    Tracked.push_back(CM.Id);
  }
}

void DeoptController::deoptimize(vm::VirtualMachine &VM, bc::MethodId Method,
                                 bool PhaseShift,
                                 std::vector<DeoptDecision> &Out) {
  const vm::CompiledMethod *CM = VM.codeCache().active(Method);
  int Level = CM ? CM->Level : 0;
  if (!VM.deoptimize(Method)) {
    States[Method].Tracked = false;
    return;
  }
  ++Stats.Deopts;
  if (PhaseShift)
    ++Stats.PhaseShiftDeopts;
  MethodState &S = States[Method];
  S.Tracked = false;
  ++S.DeoptCount;
  if (!S.Pinned && S.DeoptCount >= Config.MaxDeoptsPerMethod) {
    S.Pinned = true;
    ++Stats.ConservativePins;
  }
  Out.push_back({Method, Level, S.Pinned});
}

void DeoptController::checkOne(vm::VirtualMachine &VM,
                               const prof::DCGSnapshot &Snapshot,
                               const prof::ProfileQualityMonitor *Monitor,
                               bc::MethodId M,
                               std::vector<DeoptDecision> &Out) {
  const vm::CompiledMethod *CM = VM.codeCache().active(M);
  if (!CM || CM->Guards.empty()) {
    // Superseded by a guard-free recompile (or invalidated elsewhere,
    // which leaves nothing active): nothing left to police.
    States[M].Tracked = false;
    return;
  }
  ++Stats.GuardChecks;

  // A phase shift after the profile this version speculated on means
  // every one of its assumptions is suspect at once — deopt without
  // consulting individual guards.
  if (Monitor && Monitor->phaseShiftCount() > CM->ProfileEpoch) {
    deoptimize(VM, M, /*PhaseShift=*/true, Out);
    return;
  }

  bool Failed = false;
  for (const vm::SpeculationGuard &G : CM->Guards) {
    uint64_t SiteWeight = 0;
    bc::MethodId Dominant = Snapshot.dominantCallee(
        G.Site, Config.DominanceThresholdPct, SiteWeight);
    // Evidence gate: only contradict the assumption once the current
    // profile has real weight at the site.
    if (SiteWeight < Config.MinSiteWeight || Dominant == G.AssumedCallee)
      continue;
    ++Stats.GuardFailures;
    if (tel::TraceSink *Sink = VM.traceSink())
      Sink->event(tel::TraceEvent::guardFail(VM.cycles(), 0, M, G.Site,
                                             G.AssumedCallee));
    Failed = true;
  }
  if (Failed)
    deoptimize(VM, M, /*PhaseShift=*/false, Out);
}

namespace {

/// The tracked list accumulates stale ids (deopts and re-installs flip
/// the Tracked bit rather than erase); compacting after each pass keeps
/// iteration deterministic and the list bounded by live installs.
void compact(std::vector<bc::MethodId> &Tracked,
             const std::vector<bool> &Alive) {
  Tracked.erase(std::remove_if(Tracked.begin(), Tracked.end(),
                               [&](bc::MethodId M) { return !Alive[M]; }),
                Tracked.end());
}

} // namespace

std::vector<DeoptDecision> DeoptController::police(vm::VirtualMachine &VM) {
  std::vector<DeoptDecision> Out;
  // Under the forced storm every tracked version dies at the next taken
  // yieldpoint anyway; running the guard pass too would untrack
  // guard-free versions ("nothing to police") before the storm reaches
  // them whenever an install and a tick share a yieldpoint.
  if (Config.ForceStormForTesting || Tracked.empty())
    return Out;
  // One snapshot for the whole pass: every guard is judged against the
  // same profile, and the snapshot cost is paid once per check at most.
  prof::DCGSnapshot Snapshot = VM.profile();
  const prof::ProfileQualityMonitor *Monitor = VM.qualityMonitor();

  for (bc::MethodId M : std::vector<bc::MethodId>(Tracked))
    if (States[M].Tracked)
      checkOne(VM, Snapshot, Monitor, M, Out);

  std::vector<bool> Alive(States.size(), false);
  for (bc::MethodId M : Tracked)
    if (States[M].Tracked)
      Alive[M] = true;
  compact(Tracked, Alive);
  return Out;
}

std::vector<DeoptDecision>
DeoptController::policeInstall(vm::VirtualMachine &VM, bc::MethodId Method) {
  std::vector<DeoptDecision> Out;
  // Under the forced storm the yieldpoint pass invalidates everything
  // anyway; checking inside the install loop would turn zero-latency
  // storms into install/invalidate livelock.
  if (Config.ForceStormForTesting)
    return Out;
  if (Method >= States.size() || !States[Method].Tracked)
    return Out;
  prof::DCGSnapshot Snapshot = VM.profile();
  checkOne(VM, Snapshot, VM.qualityMonitor(), Method, Out);
  return Out;
}

std::vector<DeoptDecision> DeoptController::storm(vm::VirtualMachine &VM) {
  std::vector<DeoptDecision> Out;
  if (Tracked.empty())
    return Out;
  for (bc::MethodId M : std::vector<bc::MethodId>(Tracked)) {
    if (!States[M].Tracked)
      continue;
    if (!VM.codeCache().active(M)) {
      States[M].Tracked = false;
      continue;
    }
    // Unconditional: the storm exists to prove that arbitrarily-timed
    // invalidation never changes what the program computes.
    deoptimize(VM, M, /*PhaseShift=*/false, Out);
  }
  std::vector<bool> Alive(States.size(), false);
  for (bc::MethodId M : Tracked)
    if (States[M].Tracked)
      Alive[M] = true;
  compact(Tracked, Alive);
  return Out;
}
