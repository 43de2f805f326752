//===- vm/VirtualMachine.cpp - The virtual machine --------------------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//

#include "vm/VirtualMachine.h"

#include "telemetry/FlightRecorder.h"
#include "telemetry/TraceSink.h"
#include "vm/CostModel.h"

#include <cassert>
#include <sstream>

using namespace cbs;
using namespace cbs::vm;

const char *vm::runStateName(RunState S) {
  switch (S) {
  case RunState::Running:
    return "running";
  case RunState::Finished:
    return "finished";
  case RunState::Halted:
    return "halted";
  case RunState::Trapped:
    return "trapped";
  case RunState::CycleLimit:
    return "cycle-limit";
  }
  return "?";
}

VMClient::~VMClient() = default;

const tel::MetricRegistry &VirtualMachine::metrics() {
#define CBSVM_VM_PUBLISH(Field, Name, Kind)                                    \
  Registry.Kind(Name).Value = Stats.Field;
  CBSVM_VM_METRICS(CBSVM_VM_PUBLISH)
#undef CBSVM_VM_PUBLISH
  Registry.gauge("heap.bytes_allocated") = TheHeap.bytesAllocated();
  Registry.gauge("heap.objects") = TheHeap.numObjects();
  Registry.gauge("code.compiles") = Cache.numCompiles();
  Registry.gauge("code.recompiles") = Cache.numRecompiles();
  Registry.gauge("code.invalidations") = Cache.numInvalidations();
  Registry.gauge("code.active_instructions") = Cache.activeCodeInstructions();
  Registry.gauge("code.graveyard_instructions") =
      Cache.graveyardCodeInstructions();
  Registry.gauge("code.graveyard_reclaimed_instructions") =
      Cache.reclaimedCodeInstructions();
  Registry.gauge("code.graveyard_reclaims") = Cache.numReclaims();
  Registry.gauge("vm.methods_executed") = methodsExecuted();
  Registry.gauge("vm.threads_live") = countRunnable();
  // The online Figure 4: all attributed profiling cycles as a fraction
  // of the whole run, in basis points (300 = 3%).
  Registry.gauge("overhead.total_fraction_bp") =
      Stats.Cycles == 0 ? 0 : 10'000 * overheadCycles() / Stats.Cycles;
  return Registry;
}

VirtualMachine::VirtualMachine(const bc::Program &P, VMConfig Config)
    : P(P), Config(std::move(Config)),
      SampleStackDepth(Registry.histogram("vm.sample_stack_depth")),
      CompileCostCycles(Registry.histogram("vm.compile_cost_cycles")),
      Trace(this->Config.Trace), Recorder(this->Config.Recorder),
      Cache(P), RNG(this->Config.Seed),
      InvocationCounts(P.numMethods(), 0), TickSamples(P.numMethods(), 0) {
  if (this->Config.Profiler.Kind == ProfilerKind::CodePatching)
    Patching = std::make_unique<prof::CodePatchingProfiler>(P.numMethods());
  // A recorder with no separate trace sink doubles as the sink, so it
  // retains the regular event stream around each anomaly.
  if (Recorder && !Trace)
    Trace = Recorder;
  if (this->Config.Profiler.Quality.EveryTicks != 0)
    Quality = std::make_unique<prof::ProfileQualityMonitor>(
        this->Config.Profiler.Quality, Registry);
  // Reference configurations whose profiler is free by construction
  // (None; Exhaustive with counters uncharged — the §6.2 "perfect"
  // baseline) must stay free: organizer costs are modelled only where
  // the profiler itself is charged.
  ProfilerKind Kind = this->Config.Profiler.Kind;
  ChargedProfiling =
      Kind == ProfilerKind::CBS || Kind == ProfilerKind::Timer ||
      Kind == ProfilerKind::CodePatching ||
      (Kind == ProfilerKind::Exhaustive &&
       this->Config.Profiler.ChargeExhaustiveCounters);
  NextTimerAt = this->Config.TimerPeriodCycles;
  NextGCAt = this->Config.GCThresholdBytes;
  spawnThread(P.entryMethod());
}

VirtualMachine::~VirtualMachine() = default;

Thread &VirtualMachine::spawnThread(bc::MethodId Entry) {
  InstalledVersion *V = ensureCompiled(Entry);
  auto T = std::make_unique<Thread>();
  T->Id = static_cast<uint32_t>(Threads.size());
  T->CBS = prof::CounterBasedSampler(Config.Profiler.CBS);
  T->Alloc = prof::CounterBasedSampler(Config.Profiler.AllocCBS);
  T->Buffer = prof::SampleBuffer(Config.Profiler.SampleBufferCapacity);
  T->resizeValues(V->Body.NumLocals);
  T->Frames.push_back({V, 0, 0, false, V->Body.CostTable.data()});
  Cache.pinFrame(V);
  ++InvocationCounts[Entry];
  Threads.push_back(std::move(T));
  ++Stats.ThreadsSpawned;
  return *Threads.back();
}

InstalledVersion *VirtualMachine::ensureCompiled(bc::MethodId Id) {
  if (InstalledVersion *V = Cache.activeVersion(Id))
    return V;
  CompiledMethod CM = Config.CompileHook
                          ? Config.CompileHook(P, Id, Config.JITLevel)
                          : CodeCache::compileBaseline(P, Id, Config.JITLevel);
  assert(CM.Id == Id && "compile hook returned code for the wrong method");
  return installCompiled(std::move(CM));
}

bool VirtualMachine::deoptimize(bc::MethodId Id) {
  const InstalledVersion *Retired = Cache.invalidate(Id);
  if (!Retired)
    return false;
  // Threads reconcile lazily: each marks its own affected frames at its
  // next taken yieldpoint (reconcileDeoptFrames), which is where the
  // per-frame DeoptCost is charged.
  ++DeoptEpoch;
  ++Stats.Deopts;
  uint32_t Thr = Threads.empty() ? 0 : Threads[Current]->Id;
  emitAnomaly(tel::TraceEvent::deopt(Stats.Cycles, Thr, Id,
                                     Retired->Body.Level,
                                     Cache.invalidationEpoch(Id)));
  // A version invalidated while no frame runs it would never see
  // another unpin; free it now.
  Cache.reclaimIfUnpinned(Retired);
  return true;
}

void VirtualMachine::reconcileDeoptFrames(Thread &T) {
  if (T.DeoptEpochSeen == DeoptEpoch)
    return;
  T.DeoptEpochSeen = DeoptEpoch;
  for (Frame &F : T.Frames) {
    if (F.Deopted || !F.Version->Invalidated)
      continue;
    F.Deopted = true;
    F.Costs = F.Version->Body.baselineCosts();
    ++Stats.FramesDeopted;
    // Frame-state reconstruction for the baseline fallback: a base
    // runtime service, not profiling work.
    Stats.Cycles += cost::DeoptCost;
  }
}

void VirtualMachine::maybeOSR(Thread &T, uint32_t BackedgeTarget) {
  if (T.Frames.empty())
    return;
  Frame &F = T.top();
  InstalledVersion *From = F.Version;
  // The backedge's target must be a mapped OSR point of the running
  // version — otherwise we are not at a transferable loop entry.
  const OsrPoint *FromPt = From->Body.osrPointAtCode(BackedgeTarget);
  if (!FromPt)
    return;

  InstalledVersion *To = Cache.activeVersion(From->Body.Id);
  if (To == From)
    return; // already running the newest code
  bool DeoptExit = F.Deopted;
  if (!To) {
    // Invalidated with no replacement: only a deopted frame has a
    // reason to move — it reconciles to the fresh baseline the lazy
    // compile path would hand the next invocation anyway.
    if (!DeoptExit)
      return;
    To = ensureCompiled(From->Body.Id);
  }
  const OsrPoint *ToPt = To->Body.osrPointAtBytecode(FromPt->BytecodePC);
  if (!ToPt)
    return; // the new version dissolved this loop header

  // Transfer is a pure locals remap only when the operand stack is
  // empty. At a loop header of structured code it always is; checked,
  // not assumed, because generated programs are only verifier-clean.
  if (T.numValues() != F.LocalBase + From->Body.NumLocals)
    return;

  // Root locals occupy the same leading slots in every version;
  // inlined-callee temps beyond them are dead at a root loop header
  // (each spliced region spills its values before reading them), so
  // grow-with-zeros / shrink is safe.
  T.resizeValues(F.LocalBase + To->Body.NumLocals);
  Cache.unpinFrame(From); // may reclaim From's graveyard slot
  Cache.pinFrame(To);
  F.Version = To;
  F.PC = ToPt->CodePC;
  F.Deopted = false;
  F.Costs = To->Body.CostTable.data();

  // Frame-state extraction + rebuild for the other version's code.
  Stats.Cycles += cost::OsrCost;
  if (DeoptExit)
    ++Stats.OsrExits;
  else
    ++Stats.OsrEntries;
  if (Trace)
    Trace->event(tel::TraceEvent::osr(Stats.Cycles, T.Id, To->Body.Id,
                                      To->Body.Level,
                                      DeoptExit ? 2 : 1));
}

InstalledVersion *VirtualMachine::installCompiled(CompiledMethod CM) {
  Stats.CompileCycles += CM.CompileCostCycles;
  CompileCostCycles.record(CM.CompileCostCycles);
  // No virtual time passes during a compile, so the start and finish
  // events share the install's cycle.
  if (Trace) {
    uint32_t Thr = Threads.empty() ? 0 : Threads[Current]->Id;
    Trace->event(tel::TraceEvent::compileStart(Stats.Cycles, Thr, CM.Id,
                                               CM.Level));
    Trace->event(tel::TraceEvent::compileFinish(Stats.Cycles, Thr, CM.Id,
                                                CM.Level,
                                                CM.CompileCostCycles));
  }
  return Cache.install(std::move(CM));
}

size_t VirtualMachine::countRunnable() const {
  size_t N = 0;
  for (const auto &T : Threads)
    if (!T->Finished)
      ++N;
  return N;
}

size_t VirtualMachine::methodsExecuted() const {
  size_t N = 0;
  for (uint64_t C : InvocationCounts)
    if (C != 0)
      ++N;
  return N;
}

void VirtualMachine::emitAnomaly(const tel::TraceEvent &E) {
  if (Trace)
    Trace->event(E);
  // A recorder serving as the trace sink already saw the event above.
  if (Recorder && static_cast<tel::TraceSink *>(Recorder) != Trace)
    Recorder->event(E);
}

void VirtualMachine::trap(const std::string &Message) {
  Thread &T = *Threads[Current];
  std::ostringstream OS;
  OS << Message;
  if (!T.Frames.empty())
    OS << " in " << P.qualifiedName(T.top().Version->Body.Id) << " at pc "
       << T.top().PC;
  TrapMsg = OS.str();
  State = RunState::Trapped;
  emitAnomaly(tel::TraceEvent::trap(
      Stats.Cycles, T.Id,
      T.Frames.empty() ? bc::InvalidMethodId : T.top().Version->Body.Id,
      T.Frames.empty() ? 0 : T.top().PC));
}

void VirtualMachine::fireTimer() {
  // One tick per boundary crossing; a single long instruction (Work, GC
  // pause) that skips several periods still delivers one interrupt.
  while (NextTimerAt <= Stats.Cycles)
    NextTimerAt += Config.TimerPeriodCycles;
  if (Config.TimerJitterPct > 0) {
    int64_t MaxJitter = static_cast<int64_t>(
        static_cast<double>(Config.TimerPeriodCycles) *
        Config.TimerJitterPct / 100.0);
    if (MaxJitter > 0) {
      int64_t Jitter = RNG.nextInRange(-MaxJitter, MaxJitter);
      uint64_t Earliest = Stats.Cycles + 1;
      NextTimerAt = std::max<uint64_t>(
          Earliest, static_cast<uint64_t>(
                        static_cast<int64_t>(NextTimerAt) + Jitter));
    }
  }
  ++Stats.TimerTicks;
  Stats.Cycles += cost::TimerInterrupt;

  // Organizer activation: drain every listener buffer into the shared
  // repository (one batch per thread per activation, not per sample).
  flushAllBuffers();

  if (Config.Profiler.DecayEveryTicks != 0 &&
      Stats.TimerTicks % Config.Profiler.DecayEveryTicks == 0) {
    // Pending samples predate the decay point and must decay with the
    // rest of the repository, so flush them first.
    flushAllBuffers();
    DCG.decay(Config.Profiler.DecayFactor);
  }

  if (Quality &&
      Stats.TimerTicks % Config.Profiler.Quality.EveryTicks == 0)
    closeQualityWindow();

  Thread &T = *Threads[Current];
  TickPending = true;
  T.Word = YieldWord::TakeAll;
  if (Config.Profiler.ProfileAllocations)
    T.Alloc.onTimerTick(RNG);
  if (countRunnable() > 1)
    SwitchPending = true;

  if (Trace)
    Trace->event(tel::TraceEvent::timerTick(
        Stats.Cycles, T.Id,
        T.Frames.empty() ? bc::InvalidMethodId : T.top().Version->Body.Id));

  if (!T.Frames.empty()) {
    bc::MethodId Top = T.top().Version->Body.Id;
    ++TickSamples[Top];
    if (Client)
      Client->onTimerTick(*this, Top);
  }
}

void VirtualMachine::closeQualityWindow() {
  // Window boundary: pending samples belong to the closing window.
  flushAllBuffers();
  prof::DCGSnapshot Snap = DCG.snapshot();
  if (ChargedProfiling)
    chargeProf(static_cast<uint32_t>(cost::SnapshotPerEdge * Snap.numEdges()),
               Stats.OvSnapshot);
  const prof::QualityWindow &W =
      Quality->onWindow(Snap, Stats.TimerTicks, Stats.Cycles);

  if (Recorder) {
    tel::RecorderWindow RW;
    RW.Index = W.Index;
    RW.Tick = W.Tick;
    RW.Cycles = W.Cycles;
    RW.DeltaCycles = Stats.Cycles - WinBase.Cycles;
    RW.DeltaSamples = Stats.SamplesTaken - WinBase.SamplesTaken;
    RW.DeltaDrops = Stats.DCGDropped - WinBase.DCGDropped;
    RW.DeltaFlushes = Stats.DCGFlushes - WinBase.DCGFlushes;
    RW.DeltaProfilingCycles = Stats.ProfilingCycles - WinBase.ProfilingCycles;
    RW.OverlapBp = static_cast<uint64_t>(W.OverlapPct * 100.0 + 0.5);
    RW.OverheadBp =
        Stats.Cycles == 0 ? 0 : 10'000 * overheadCycles() / Stats.Cycles;
    Recorder->noteWindow(RW);
    WinBase = Stats;
  }

  // Emit after the window note so a dump triggered by this event
  // carries the window that detected the shift.
  if (W.PhaseShift)
    emitAnomaly(tel::TraceEvent::phaseShift(
        Stats.Cycles, Threads[Current]->Id,
        static_cast<uint32_t>(W.OverlapPct * 100.0 + 0.5),
        static_cast<uint32_t>(W.Index)));
}

void VirtualMachine::maybeSwitch() {
  if (!SwitchPending)
    return;
  SwitchPending = false;
  size_t N = Threads.size();
  for (size_t I = 1; I <= N; ++I) {
    size_t Next = (Current + I) % N;
    if (Threads[Next]->Finished)
      continue;
    if (Next != Current) {
      uint32_t From = Threads[Current]->Id;
      // Yieldpoint flush: the outgoing thread's staged samples enter
      // the repository before another thread runs.
      flushThreadBuffer(*Threads[Current]);
      Current = Next;
      ++Stats.ThreadSwitches;
      Stats.Cycles += cost::ThreadSwitch;
      if (Trace)
        Trace->event(tel::TraceEvent::threadSwitch(Stats.Cycles, From,
                                                   Threads[Next]->Id));
    }
    return;
  }
}

void VirtualMachine::recordEdgeSample(Thread &T) {
  ++Stats.SamplesTaken;
  SampleStackDepth.record(T.Frames.size());
  chargeProf(cost::StackSampleBase, Stats.OvStackWalk);
  std::optional<prof::CallEdge> Edge = T.topEdge();
  if (Trace)
    Trace->event(tel::TraceEvent::sample(
        Stats.Cycles, T.Id, Edge ? Edge->Callee : bc::InvalidMethodId,
        Edge ? Edge->Site : bc::InvalidSiteId));
  // Listener context: append only. The buffer is drained by the
  // organizer at the next timer tick — a listener may not take
  // repository locks, and a buffer that fills up before the organizer
  // runs drops further samples (surfaced as sample_drop events).
  if (Edge)
    T.Buffer.append(*Edge);
}

void VirtualMachine::processTaken(Thread &T, Where W,
                                  uint32_t BackedgeTarget) {
  ++Stats.YieldpointsTaken;

  // Taken yieldpoints are the deterministic virtual-time points where
  // background compilations may install (the client checks its queue
  // against cycles()). Before tick/GC servicing so an install and the
  // tick that follows it order the same way at any --compile-jobs.
  if (Client)
    Client->onYieldpoint(*this);

  // Deopt fallback transition: frames whose pinned version was
  // invalidated (possibly by the client call just above) drop to
  // baseline speed here — the earliest deterministic point after the
  // decision.
  reconcileDeoptFrames(T);

  // On-stack replacement happens only here: after installs and deopt
  // reconciliation (so the frame transfers to whatever just became
  // active), before tick servicing, and only at backedges — the one
  // yieldpoint flavour where the interpreter is at a loop entry with an
  // empty operand stack.
  if (Config.EnableOSR && W == Where::Backedge)
    maybeOSR(T, BackedgeTarget);

  // Figure 4: the overloaded flag's slow path disambiguates all pending
  // conditions — original services (GC) first, then profiling.
  if (GCRequested) {
    GCRequested = false;
    ++Stats.GCCount;
    Stats.Cycles += cost::GCPause;
    NextGCAt = TheHeap.bytesAllocated() + Config.GCThresholdBytes;
    if (Trace)
      Trace->event(tel::TraceEvent::gc(Stats.Cycles, T.Id,
                                       TheHeap.bytesAllocated()));
  }

  ProfilerKind Kind = Config.Profiler.Kind;

  if (TickPending) {
    TickPending = false;
    // Attributed but not in ProfilingCycles: servicing a tick at a
    // yieldpoint is a base runtime service every configuration pays.
    Stats.Cycles += cost::TickService;
    Stats.OvYieldpoint += cost::TickService;
    if (Kind == ProfilerKind::CBS) {
      // §5.1: a yieldpoint taken for a timer interrupt arms CBS by
      // setting the control word to -1; the thread switch is deferred
      // until the window closes.
      T.CBS.onTimerTick(RNG);
      T.Word = YieldWord::CBSArmed;
      if (Trace)
        Trace->event(tel::TraceEvent::windowArm(
            Stats.Cycles, T.Id, Config.Profiler.CBS.SamplesPerTick));
      if (SwitchPending) {
        T.DeferredSwitch = true;
        SwitchPending = false;
      }
      return;
    }
    if (Kind == ProfilerKind::Timer) {
      T.Timer.onTimerTick();
      if (W == Where::Backedge) {
        // The switch happens here and the DCG listener records nothing.
        T.Timer.cancel();
      } else {
        T.Timer.onInvocationEvent();
        recordEdgeSample(T);
      }
    }
    T.Word = YieldWord::Clear;
    maybeSwitch();
    return;
  }

  // Not a tick: a CBS invocation event, or a service-only request (GC).
  if (Kind == ProfilerKind::CBS && T.CBS.armed() && W != Where::Backedge) {
    chargeProf(cost::ArmedEventCost, Stats.OvEntryCheck);
    if (T.CBS.onInvocationEvent()) {
      recordEdgeSample(T);
      if (!T.CBS.armed()) {
        if (Trace)
          Trace->event(tel::TraceEvent::windowDisarm(Stats.Cycles, T.Id));
        T.Word = YieldWord::Clear;
        if (T.DeferredSwitch) {
          T.DeferredSwitch = false;
          SwitchPending = true;
          maybeSwitch();
        }
      }
    }
    return;
  }

  if (T.Word == YieldWord::TakeAll) {
    // Service-only request already handled above (GC); restore the word.
    T.Word = (Kind == ProfilerKind::CBS && T.CBS.armed())
                 ? YieldWord::CBSArmed
                 : YieldWord::Clear;
    maybeSwitch();
  }
}

void VirtualMachine::invoke(Thread &T, bc::MethodId Callee, uint32_t ArgCount,
                            bc::SiteId Site) {
  // Exhaustive profiler: record the edge at the call itself. Routed
  // through the thread's buffer like sampled edges — weights are
  // commutative sums, so batching does not change the profile.
  if (Config.Profiler.Kind == ProfilerKind::Exhaustive) {
    if (T.Buffer.append({Site, Callee}))
      flushThreadBuffer(T);
    if (Config.Profiler.ChargeExhaustiveCounters)
      chargeProf(cost::ExhaustiveCounter, Stats.OvCounterUpdate);
  }

  InstalledVersion *V = ensureCompiled(Callee);
  uint64_t Count = ++InvocationCounts[Callee];

  if (Patching) {
    if (Patching->isListening(Callee)) {
      chargeProf(cost::ListenerCost, Stats.OvListener);
      Patching->onListenedEntry(Callee, {Site, Callee}, Stats.Cycles, DCG);
    } else if (Count == Config.Profiler.PromoteAfterInvocations) {
      Patching->onMethodPromoted(Callee, Stats.Cycles);
    }
  }

  // The arguments on the operand stack become the callee's first locals;
  // only the slots past them are zeroed.
  assert(T.numValues() >=
             T.top().LocalBase + T.top().Version->Body.NumLocals + ArgCount &&
         "operand stack underflow at call");
  uint32_t LocalBase = static_cast<uint32_t>(T.numValues() - ArgCount);
  T.resizeValues(LocalBase + V->Body.NumLocals);
  T.Frames.push_back({V, 0, LocalBase, false, V->Body.CostTable.data()});
  Cache.pinFrame(V);
  ++Stats.CallsExecuted;
  Stats.MaxStackDepth = std::max<uint64_t>(Stats.MaxStackDepth,
                                           T.Frames.size());

  // Prologue yieldpoint (Jikes) / overloaded entry check (J9).
  if (Config.ExplicitEntryCheck)
    chargeProf(cost::ExplicitEntryCheck, Stats.OvEntryCheck);
  if (T.Word != YieldWord::Clear)
    processTaken(T, Where::Prologue);
}

prof::AllocationProfile VirtualMachine::trueAllocationProfile() const {
  prof::AllocationProfile Truth;
  const std::vector<uint64_t> &Counts = TheHeap.perClassAllocations();
  for (bc::ClassId C = 0; C != Counts.size(); ++C)
    if (Counts[C] != 0)
      Truth.addSample(C, Counts[C]);
  return Truth;
}

void VirtualMachine::flushThreadBuffer(Thread &T) {
  if (uint64_t Dropped = T.Buffer.takeDroppedDelta()) {
    Stats.DCGDropped += Dropped;
    emitAnomaly(tel::TraceEvent::sampleDrop(
        Stats.Cycles, T.Id, static_cast<uint32_t>(T.Buffer.capacity()),
        Dropped));
  }
  size_t Pending = T.Buffer.pendingCount();
  if (Pending == 0)
    return;
  // Organizer cost: modelled only while the program runs (post-run
  // flushes are measurement) and only for charged profilers.
  if (ChargedProfiling && State == RunState::Running)
    chargeProf(cost::BufferFlushBase +
                   cost::BufferFlushPerSample * static_cast<uint32_t>(Pending),
               Stats.OvBufferFlush);
  T.Buffer.flushInto(DCG);
  ++Stats.DCGFlushes;
}

void VirtualMachine::flushAllBuffers() {
  for (const auto &T : Threads)
    flushThreadBuffer(*T);
}

prof::DCGSnapshot VirtualMachine::profile() {
  flushAllBuffers();
  if (Patching && State != RunState::Running)
    Patching->flushIncomplete(Stats.Cycles, DCG);
  prof::DCGSnapshot Snap = DCG.snapshot();
  // Mid-run materialization is the organizer/AOS read path and is
  // modelled work; post-run reads are measurement and stay free.
  if (ChargedProfiling && State == RunState::Running)
    chargeProf(static_cast<uint32_t>(cost::SnapshotPerEdge * Snap.numEdges()),
               Stats.OvSnapshot);
  return Snap;
}

Ref VirtualMachine::newObject(Thread &T, bc::ClassId Class) {
  if (TheHeap.bytesAllocated() >= NextGCAt) {
    GCRequested = true;
    if (T.Word == YieldWord::Clear)
      T.Word = YieldWord::TakeAll;
  }
  // §8 generalization: the allocation sampler's armed check overloads
  // the allocator's heap-frontier test.
  if (Config.Profiler.ProfileAllocations && T.Alloc.armed()) {
    chargeProf(cost::ArmedEventCost, Stats.OvEntryCheck);
    if (T.Alloc.onInvocationEvent()) {
      // A histogram bump, no walk: counter-update work.
      chargeProf(cost::AllocSampleCost, Stats.OvCounterUpdate);
      AllocProfile.addSample(Class);
      ++Stats.SamplesTaken;
      // Allocation samples have no walked call edge; the invariant
      // "one sample event per SamplesTaken increment" still holds.
      if (Trace)
        Trace->event(tel::TraceEvent::sample(Stats.Cycles, T.Id,
                                             bc::InvalidMethodId,
                                             bc::InvalidSiteId));
    }
  }
  return TheHeap.allocate(P.hierarchy().classOf(Class));
}

void VirtualMachine::returnFrom(Thread &T, bool HasResult) {
  // Epilogue yieldpoint: Jikes RVM only (§5.1); J9's mechanism is the
  // method-entry check and has no epilogue event. The return completes
  // on T even if the yieldpoint switches threads.
  if (Config.Pers == Personality::JikesRVM && T.Word != YieldWord::Clear)
    processTaken(T, Where::Epilogue);

  int64_t Result = HasResult ? *--T.Sp : 0;
  uint32_t LocalBase = T.top().LocalBase;
  // The pop may reclaim a retired version this frame was the last to
  // pin; nothing of it may be touched afterwards.
  Cache.unpinFrame(T.top().Version);
  T.Frames.pop_back();
  T.Sp = T.Base + LocalBase;
  if (T.Frames.empty()) {
    T.Finished = true;
    // Shutdown flush: a finished thread's staged samples must not sit
    // in a dead buffer.
    flushThreadBuffer(T);
    if (countRunnable() == 0) {
      State = RunState::Finished;
    } else {
      SwitchPending = true;
      maybeSwitch();
    }
    return;
  }
  if (HasResult)
    T.push(Result);
  ++T.top().PC;
}

RunState VirtualMachine::run(uint64_t CycleBudget) {
  if (State != RunState::Running)
    return State;
  // Startup notification: once, before the first instruction, at
  // virtual cycle 0 — the client's chance to act on persisted profile
  // knowledge (warm-start enqueues) before the sampler exists.
  if (!StartupNotified) {
    StartupNotified = true;
    if (Client)
      Client->onStartup(*this);
  }
  uint64_t Limit = CycleBudget == UINT64_MAX
                       ? UINT64_MAX
                       : Stats.Cycles + CycleBudget;

  // The loop's working state lives in these locals between events, so
  // that nothing the loop computes per instruction reaches memory.
  // sync() writes it back to Stats, the thread and its top frame before
  // anything out of line runs; reload() reads it back afterwards and
  // re-derives the thread and frame, since such a call may switch
  // threads, push or pop a frame, grow the value arena, or move or
  // deopt the frame. Every exit from the loop is synced.
  //
  // Tos caches the top of the operand stack, Sp[-1]. The arena stays
  // the only store (every push writes through), so sync() has nothing
  // to flush for it; after any write to the arena that may land on
  // Sp[-1] other than a push, Tos is read back.
  uint64_t Cycles = 0;
  uint64_t Instrs = 0;
  Thread *T = nullptr;
  Frame *F = nullptr;
  const bc::Instruction *Code = nullptr;
  const PcCost *PcCosts = nullptr;
  uint32_t PC = 0;
  int64_t *Sp = nullptr;
  int64_t *End = nullptr;
  int64_t *Locals = nullptr;
  int64_t Tos = 0;

  auto sync = [&]() __attribute__((always_inline)) {
    Stats.Cycles = Cycles;
    Stats.Instructions = Instrs;
    F->PC = PC;
    T->Sp = Sp;
  };
  auto reload = [&]() __attribute__((always_inline)) {
    Cycles = Stats.Cycles;
    Instrs = Stats.Instructions;
    T = Threads[Current].get();
    Sp = T->Sp;
    Tos = Sp[-1];
    End = T->End;
    F = &T->top();
    PC = F->PC;
    Code = F->Version->Body.Code.data();
    PcCosts = F->Costs;
    Locals = T->Base + F->LocalBase;
  };
  auto push = [&](int64_t V) __attribute__((always_inline)) {
    if (Sp == End) [[unlikely]] {
      sync();
      T->growValues(T->numValues() + 1);
      reload();
    }
    *Sp++ = V;
    Tos = V;
  };
  auto pop = [&]() __attribute__((always_inline)) {
    int64_t V = Tos;
    --Sp;
    Tos = Sp[-1];
    return V;
  };
  // Pops two operands and pushes Op's result on them; false, with
  // nothing pushed, when Op traps on them.
  auto binop = [&](bc::Opcode Op) __attribute__((always_inline)) {
    int64_t R = Tos, L = Sp[-2];
    if (R == 0 && bc::trapsOnZero(Op)) {
      Sp -= 2;
      return false;
    }
    --Sp;
    Sp[-1] = Tos = bc::evalBinop(Op, L, R);
    return true;
  };
  // A taken branch to Target. Backedge yieldpoint: taken only when the
  // word is positive (the Jikes 3-state encoding; the J9 personality
  // services switch/GC requests here too).
  auto branch = [&](int32_t A) __attribute__((always_inline)) {
    uint32_t Target = static_cast<uint32_t>(A);
    if (Target > PC || T->Word != YieldWord::TakeAll) [[likely]] {
      PC = Target;
      return;
    }
    Frame *Branching = F;
    const InstalledVersion *Before = F->Version;
    sync();
    processTaken(*T, Where::Backedge, Target);
    // An OSR transfer redirected the frame into another version and
    // already set its PC; Target is a PC of the old code. (The old
    // version may even have been reclaimed — I must not be touched past
    // this point.) The branch completes on its own thread even if the
    // yieldpoint switched threads.
    if (Branching->Version == Before)
      Branching->PC = Target;
    reload();
  };
  // A conditional branch on one or two popped values: takes it and
  // returns true, or returns false to fall through.
  auto unaryBranch = [&](bc::Opcode Op, int32_t A) __attribute__((always_inline)) {
    if (!bc::branchTaken(Op, pop(), 0))
      return false;
    branch(A);
    return true;
  };
  auto binaryBranch = [&](bc::Opcode Op, int32_t A) __attribute__((always_inline)) {
    int64_t R = Tos, L = Sp[-2];
    Sp -= 2;
    Tos = Sp[-1];
    if (!bc::branchTaken(Op, L, R))
      return false;
    branch(A);
    return true;
  };
  // One threshold stands for the budget, MaxCycles and the timer.
  auto nextEventAt = [&] {
    return std::min({Limit, Config.MaxCycles, NextTimerAt});
  };

  reload();
  uint64_t NextEventAt = nextEventAt();
  for (;;) {
    if (Cycles >= NextEventAt) [[unlikely]] {
      // The three checks behind the threshold, in their fixed order.
      if (Cycles >= Limit) {
        sync();
        return State;
      }
      if (Cycles >= Config.MaxCycles) {
        sync();
        State = RunState::CycleLimit;
        return State;
      }
      if (Cycles >= NextTimerAt) {
        sync();
        fireTimer();
        reload();
        NextEventAt = nextEventAt();
      }
    }

    const bc::Instruction &I = Code[PC];
    // A deopted frame's table is the unscaled one: the modelled
    // interpreter fallback.
    Cycles += PcCosts[PC].Cycles;
    Instrs += static_cast<uint64_t>(PcCosts[PC].Instructions);

    using bc::Opcode;
    switch (I.Op) {
    case Opcode::Nop:
      break;
    case Opcode::IConst:
      push(I.A);
      break;
    case Opcode::ILoad:
    case Opcode::ALoad:
      push(Locals[I.A]);
      break;
    case Opcode::IStore:
    case Opcode::AStore:
      Locals[I.A] = Tos;
      --Sp;
      Tos = Sp[-1];
      break;
    case Opcode::IInc:
      Locals[I.A] = bc::evalBinop(Opcode::IAdd, Locals[I.A], I.B);
      Tos = Sp[-1];
      break;
    // Each operator and branch is its own case, so that its operation
    // is a constant and dispatch is the one switch.
    case Opcode::IAdd:
      binop(Opcode::IAdd);
      break;
    case Opcode::ISub:
      binop(Opcode::ISub);
      break;
    case Opcode::IMul:
      binop(Opcode::IMul);
      break;
    case Opcode::IDiv:
      if (!binop(Opcode::IDiv)) {
        sync();
        trap("division by zero");
        return State;
      }
      break;
    case Opcode::IRem:
      if (!binop(Opcode::IRem)) {
        sync();
        trap("remainder by zero");
        return State;
      }
      break;
    case Opcode::IAnd:
      binop(Opcode::IAnd);
      break;
    case Opcode::IOr:
      binop(Opcode::IOr);
      break;
    case Opcode::IXor:
      binop(Opcode::IXor);
      break;
    case Opcode::IShl:
      binop(Opcode::IShl);
      break;
    case Opcode::IShr:
      binop(Opcode::IShr);
      break;
    case Opcode::INeg:
      Sp[-1] = Tos = bc::evalNeg(Tos);
      break;

    case Opcode::Goto:
      branch(I.A);
      continue;
    case Opcode::IfEq:
      if (unaryBranch(Opcode::IfEq, I.A))
        continue;
      break;
    case Opcode::IfNe:
      if (unaryBranch(Opcode::IfNe, I.A))
        continue;
      break;
    case Opcode::IfLt:
      if (unaryBranch(Opcode::IfLt, I.A))
        continue;
      break;
    case Opcode::IfLe:
      if (unaryBranch(Opcode::IfLe, I.A))
        continue;
      break;
    case Opcode::IfGt:
      if (unaryBranch(Opcode::IfGt, I.A))
        continue;
      break;
    case Opcode::IfGe:
      if (unaryBranch(Opcode::IfGe, I.A))
        continue;
      break;
    case Opcode::IfICmpEq:
      if (binaryBranch(Opcode::IfICmpEq, I.A))
        continue;
      break;
    case Opcode::IfICmpNe:
      if (binaryBranch(Opcode::IfICmpNe, I.A))
        continue;
      break;
    case Opcode::IfICmpLt:
      if (binaryBranch(Opcode::IfICmpLt, I.A))
        continue;
      break;
    case Opcode::IfICmpGe:
      if (binaryBranch(Opcode::IfICmpGe, I.A))
        continue;
      break;

    case Opcode::New: {
      sync();
      Ref R = newObject(*T, static_cast<bc::ClassId>(I.A));
      reload();
      push(R);
      break;
    }
    case Opcode::GetField: {
      Ref R = static_cast<Ref>(Tos);
      if (!TheHeap.validRef(R)) {
        --Sp;
        sync();
        trap("getfield on null or invalid reference");
        return State;
      }
      if (static_cast<uint32_t>(I.A) >= TheHeap.numFields(R)) {
        --Sp;
        sync();
        trap("getfield index out of range");
        return State;
      }
      Sp[-1] = Tos = TheHeap.getField(R, static_cast<uint32_t>(I.A));
      break;
    }
    case Opcode::PutField: {
      int64_t V = Tos;
      Ref R = static_cast<Ref>(Sp[-2]);
      Sp -= 2;
      Tos = Sp[-1];
      if (!TheHeap.validRef(R)) {
        sync();
        trap("putfield on null or invalid reference");
        return State;
      }
      if (static_cast<uint32_t>(I.A) >= TheHeap.numFields(R)) {
        sync();
        trap("putfield index out of range");
        return State;
      }
      TheHeap.putField(R, static_cast<uint32_t>(I.A), V);
      break;
    }
    case Opcode::AConstNull:
      push(0);
      break;
    case Opcode::ClassEq: {
      Ref R = static_cast<Ref>(Tos);
      Sp[-1] = Tos = R != 0 && TheHeap.validRef(R) &&
                     TheHeap.classOf(R) == static_cast<bc::ClassId>(I.A);
      break;
    }

    case Opcode::InvokeStatic:
      sync();
      invoke(*T, static_cast<bc::MethodId>(I.A),
             static_cast<uint32_t>(I.B), I.Site);
      reload();
      continue;

    case Opcode::InvokeVirtual: {
      sync();
      uint32_t ArgCount = static_cast<uint32_t>(I.B);
      Ref Receiver = static_cast<Ref>(T->Sp[-static_cast<ptrdiff_t>(ArgCount)]);
      if (!TheHeap.validRef(Receiver)) {
        trap("virtual call on null receiver");
        return State;
      }
      bc::MethodId Target = P.hierarchy().lookup(
          TheHeap.classOf(Receiver), static_cast<bc::SelectorId>(I.A));
      if (Target == bc::InvalidMethodId) {
        trap("receiver does not understand selector '" +
             P.hierarchy().selectorName(static_cast<bc::SelectorId>(I.A)) +
             "'");
        return State;
      }
      ++Stats.VirtualCallsExecuted;
      invoke(*T, Target, ArgCount, I.Site);
      reload();
      continue;
    }

    case Opcode::Return:
    case Opcode::IReturn:
    case Opcode::AReturn:
      sync();
      returnFrom(*T, I.Op != Opcode::Return);
      if (State != RunState::Running)
        return State;
      reload();
      continue;

    case Opcode::Work:
      break;
    case Opcode::Print:
      Output.push_back(pop());
      break;
    case Opcode::Halt:
      sync();
      State = RunState::Halted;
      return State;
    case Opcode::Spawn:
      sync();
      spawnThread(static_cast<bc::MethodId>(I.A));
      reload();
      break;
    }

    ++PC;
  }
}
