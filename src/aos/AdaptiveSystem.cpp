//===- aos/AdaptiveSystem.cpp - Adaptive optimization ------------------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//

#include "aos/AdaptiveSystem.h"

#include "telemetry/MetricRegistry.h"
#include "telemetry/TraceSink.h"
#include "vm/CostModel.h"

#include <algorithm>
#include <utility>

using namespace cbs;
using namespace cbs::aos;

/// The profile-blind oracle: the fallback when the AOS has none, and
/// the source of the conservative plan.
static const opt::InlineOracle &trivialOracle() {
  static const opt::TrivialOracle Trivial;
  return Trivial;
}

/// Bound on requests pending in the compile queue; beyond it the
/// lowest-priority entry is evicted (or the newcomer rejected).
static constexpr size_t CompileQueueCapacity = 16;

AdaptiveSystem::AdaptiveSystem(const opt::InlineOracle *Oracle,
                               AOSConfig Config)
    : Oracle(Oracle ? *Oracle : trivialOracle()), Config(Config),
      Queue(CompileQueueCapacity), Pool(Config.CompileJobs) {
  if (Config.Deopt.Enabled)
    DeoptCtl = std::make_unique<DeoptController>(Config.Deopt);
}

AdaptiveSystem::~AdaptiveSystem() = default;

// Every aos.* gauge publishMetrics mirrors, one row each:
//   X(group, registry name, value)
// A `Warm` row is published only on warm-started runs, a `Deopt` row
// only when the guard-policing controller is on (D is its stats).
#define CBSVM_AOS_GAUGES(X)                                                    \
  X(Always, "aos.ticks", Stats.Ticks)                                          \
  X(Always, "aos.recompilations", Stats.Recompilations)                        \
  X(Always, "aos.plans_computed", Stats.PlansComputed)                         \
  X(Always, "aos.promotions_l1", Stats.PromotionsToL1)                         \
  X(Always, "aos.promotions_l2", Stats.PromotionsToL2)                         \
  X(Always, "aos.reoptimizations", Stats.Reoptimizations)                      \
  X(Always, "aos.phase_shift_replans", Stats.PhaseShiftReplans)                \
  X(Always, "aos.plan_overlap_bp", PlanOverlapBp)                              \
  X(Always, "aos.queue.depth", Queue.depth())                                  \
  X(Always, "aos.queue.enqueued", Stats.QueueEnqueued)                         \
  X(Always, "aos.queue.installs", Stats.QueueInstalls)                         \
  X(Always, "aos.queue.stale_drops", Stats.QueueStaleDrops)                    \
  X(Always, "aos.queue.coalesced", Stats.QueueCoalesced)                       \
  X(Always, "aos.queue.dropped", Stats.QueueDropped)                           \
  X(Always, "aos.queue.first_install_cycle", Stats.FirstInstallCycle)          \
  X(Warm, "aos.warm.enqueued", Stats.WarmEnqueued)                             \
  X(Warm, "aos.warm.installs", Stats.WarmInstalls)                             \
  X(Deopt, "aos.deopt.guard_checks", D->GuardChecks)                           \
  X(Deopt, "aos.deopt.guard_failures", D->GuardFailures)                       \
  X(Deopt, "aos.deopt.count", D->Deopts)                                       \
  X(Deopt, "aos.deopt.phase_shift", D->PhaseShiftDeopts)                       \
  X(Deopt, "aos.deopt.conservative_pins", D->ConservativePins)                 \
  X(Deopt, "aos.deopt.stale_requests_dropped", D->StaleRequestsDropped)        \
  X(Deopt, "aos.deopt.recompiles", D->Recompiles)

void AdaptiveSystem::publishMetrics(vm::VirtualMachine &VM) {
  tel::MetricRegistry &R = VM.metricsRegistry();
  const DeoptStats *D = DeoptCtl ? &DeoptCtl->stats() : nullptr;
  const bool Always = true, Warm = warmStarted(), Deopt = D != nullptr;
#define CBSVM_AOS_PUBLISH(Group, Name, Value)                                  \
  if (Group)                                                                   \
    R.gauge(Name) = Value;
  CBSVM_AOS_GAUGES(CBSVM_AOS_PUBLISH)
#undef CBSVM_AOS_PUBLISH
}

std::shared_ptr<const opt::InlinePlan>
AdaptiveSystem::currentPlan(vm::VirtualMachine &VM) {
  // Convergence state gates plan reuse: a phase shift flagged by the
  // quality monitor means the DCG the plan was built from no longer
  // describes the program, so rebuild now instead of serving the stale
  // plan out to the end of its refresh interval.
  const prof::ProfileQualityMonitor *Monitor = VM.qualityMonitor();
  bool ShiftPending =
      Monitor && Monitor->phaseShiftCount() > SeenPhaseShifts;
  if (Plan && !ShiftPending && PlanAgeTicks < Config.PlanRefreshTicks)
    return Plan;
  if (Monitor)
    SeenPhaseShifts = Monitor->phaseShiftCount();
  if (Plan && ShiftPending)
    ++Stats.PhaseShiftReplans;
  PlanOverlapBp = Monitor ? static_cast<uint64_t>(
                                Monitor->lastOverlapPct() * 100.0 + 0.5)
                          : 10'000;
  adoptPlan(VM, Oracle.plan(VM.program(), VM.profile()),
            Monitor ? Monitor->phaseShiftCount() : 0);
  return Plan;
}

void AdaptiveSystem::adoptPlan(vm::VirtualMachine &VM, opt::InlinePlan Fresh,
                               uint64_t ProfileEpoch) {
  // A fresh allocation per generation: in-flight CompileRequests (and
  // worker threads) keep their enqueue-time snapshot alive. The plan is
  // stamped with its generation and the profile epoch it was built
  // against (the monitor's phase-shift count) so compiled code carries
  // its own provenance for guard policing.
  Fresh.Generation = PlanGeneration + 1;
  Fresh.ProfileEpoch = ProfileEpoch;
  Plan = std::make_shared<const opt::InlinePlan>(std::move(Fresh));
  PlanAgeTicks = 0;
  ++PlanGeneration;
  ++Stats.PlansComputed;

  // Trace each non-trivial decision of the fresh plan. The plan map is
  // unordered; emit in site order so traces stay byte-reproducible.
  if (tel::TraceSink *Sink = VM.traceSink()) {
    std::vector<std::pair<bc::SiteId, const opt::InlineDecision *>> Sorted;
    Sorted.reserve(Plan->Decisions.size());
    for (const auto &[Site, Decision] : Plan->Decisions)
      if (Decision.K != opt::InlineDecision::Kind::None)
        Sorted.emplace_back(Site, &Decision);
    std::sort(Sorted.begin(), Sorted.end(),
              [](const auto &L, const auto &R) { return L.first < R.first; });
    for (const auto &[Site, Decision] : Sorted) {
      bool Direct = Decision->K == opt::InlineDecision::Kind::Direct;
      bc::MethodId Target = Direct ? Decision->Target
                            : Decision->Guarded.empty()
                                ? bc::InvalidMethodId
                                : Decision->Guarded.front().Target;
      Sink->event(tel::TraceEvent::inlineDecision(VM.cycles(), Target, Site,
                                                  Direct ? 1 : 2));
    }
  }
}

void AdaptiveSystem::onStartup(vm::VirtualMachine &VM) {
  if (!Config.WarmStart.Profile)
    return;
  const prof::DCGSnapshot &Snap = *Config.WarmStart.Profile;
  publishMetrics(VM); // register the aos.* gauges even if nothing fires
  if (Snap.numEdges() == 0)
    return;
  if (PerMethod.empty())
    PerMethod.resize(VM.program().numMethods());

  // The persisted profile plays the role the converged sampler profile
  // plays mid-run: the oracle builds the startup inline plan from it.
  // It becomes the current plan, so warm compiles and the first few
  // sampler promotions share one coherent view until the live profile
  // matures and the regular refresh supersedes it.
  adoptPlan(VM, Oracle.plan(VM.program(), Snap), /*ProfileEpoch=*/0);

  // Rank methods by their accumulated callee weight in the persisted
  // profile; ties break toward the lower id so the pre-enqueue order is
  // deterministic.
  std::vector<uint64_t> PerCallee(VM.program().numMethods(), 0);
  Snap.forEachEdge([&](prof::CallEdge E, uint64_t W) {
    if (E.Callee < PerCallee.size())
      PerCallee[E.Callee] += W;
  });
  // Minimum accumulated callee weight for a method to qualify.
  constexpr uint64_t MinMethodWeight = 1;
  std::vector<std::pair<uint64_t, bc::MethodId>> Hot;
  for (bc::MethodId M = 0; M < PerCallee.size(); ++M)
    if (PerCallee[M] >= MinMethodWeight)
      Hot.emplace_back(PerCallee[M], M);
  std::sort(Hot.begin(), Hot.end(), [](const auto &L, const auto &R) {
    return L.first != R.first ? L.first > R.first : L.second < R.second;
  });
  // At most this many hot methods are pre-enqueued, each at the top
  // optimization level.
  constexpr size_t MaxWarmMethods = 8;
  constexpr int WarmLevel = 2;
  if (Hot.size() > MaxWarmMethods)
    Hot.resize(MaxWarmMethods);

  for (const auto &[Weight, Method] : Hot) {
    // Priority is the persisted weight: heavier history compiles first
    // when the queue has to choose.
    submitRequest(VM,
                  {.Method = Method,
                   .Level = WarmLevel,
                   .Priority = static_cast<double>(Weight),
                   .Warm = true},
                  Plan);
    ++Stats.WarmEnqueued;
  }
  publishMetrics(VM);
}

uint64_t AdaptiveSystem::compileLatency(vm::VirtualMachine &VM,
                                        bc::MethodId Method,
                                        int Level) const {
  // Latency is modelled on the pre-inlining size known at enqueue time
  // (the decision point cannot see the post-inlining expansion).
  double L = Config.CompileLatencyScale * vm::cost::CompileCostPerByte[Level] *
             static_cast<double>(VM.program().method(Method).sizeBytes());
  return L <= 0 ? 0 : static_cast<uint64_t>(L);
}

/// The cost-benefit score of compiling \p Method at \p Level: how many
/// times over its estimated remaining time pays for the compile.
static double benefitRatio(vm::VirtualMachine &VM, bc::MethodId Method,
                           int Level) {
  // Estimated remaining cycles ~ samples * period: what has been
  // observed so far is the AOS's standard predictor of the future.
  double EstimatedRemaining =
      static_cast<double>(VM.methodTickSamples()[Method]) *
      static_cast<double>(VM.config().TimerPeriodCycles);
  double CompileCost =
      vm::cost::CompileCostPerByte[Level] *
      static_cast<double>(VM.program().method(Method).sizeBytes());
  return EstimatedRemaining / CompileCost;
}

void AdaptiveSystem::submitRequest(
    vm::VirtualMachine &VM, CompileRequest R,
    std::shared_ptr<const opt::InlinePlan> RequestPlan) {
  const prof::ProfileQualityMonitor *Monitor = VM.qualityMonitor();
  R.Plan = std::move(RequestPlan);
  R.PlanGeneration = PlanGeneration;
  R.PhaseShiftsSeen = Monitor ? Monitor->phaseShiftCount() : 0;
  R.EnqueueCycle = VM.cycles();
  R.ReadyCycle = VM.cycles() + compileLatency(VM, R.Method, R.Level);
  R.Seq = Queue.nextSeq();
  R.CacheEpoch = VM.codeCache().invalidationEpoch(R.Method);
  // The job reads only the program and its own copies, never VM or AOS
  // state, so it may run on a worker.
  auto Compile = [&P = VM.program(), Method = R.Method, Level = R.Level,
                  Plan = R.Plan] {
    return opt::compileMethod(P, Method, Level, *Plan);
  };
  R.Pending = Pool.submit(std::move(Compile));
  if (tel::TraceSink *Sink = VM.traceSink())
    Sink->event(tel::TraceEvent::compileEnqueue(VM.cycles(), 0, R.Method,
                                                static_cast<uint32_t>(R.Level),
                                                R.ReadyCycle));
  std::optional<CompileRequest> Evicted;
  switch (Queue.enqueue(std::move(R), &Evicted)) {
  case EnqueueResult::Added:
    ++Stats.QueueEnqueued;
    break;
  case EnqueueResult::Coalesced:
    ++Stats.QueueCoalesced;
    break;
  case EnqueueResult::EvictedLowest:
    ++Stats.QueueEnqueued;
    ++Stats.QueueDropped;
    break;
  case EnqueueResult::Rejected:
    ++Stats.QueueDropped;
    break;
  }
}

bool AdaptiveSystem::maybePromote(vm::VirtualMachine &VM,
                                  bc::MethodId Method) {
  if (PerMethod.empty())
    PerMethod.resize(VM.program().numMethods());

  // A method pinned by the deopt controller already has its final
  // (conservative) version: re-speculating it would just restart the
  // storm the pin stopped.
  if (DeoptCtl && DeoptCtl->isPinned(Method))
    return false;

  vm::CodeCache &Cache = VM.codeCache();
  int Pending = Queue.pendingLevel(Method);
  // A pending compile counts as if it had installed: the tick loop can
  // upgrade a queued L1 request to L2, but never duplicates it.
  int Level = std::max(Cache.activeLevel(Method), Pending);
  uint32_t Samples = VM.methodTickSamples()[Method];
  // A method already at the top level may be *re*-optimized when the
  // inline plan has advanced this many generations since it was last
  // compiled — early recompilations happen against immature profiles,
  // and the modelled VMs keep re-optimizing as profiles mature.
  constexpr uint32_t ReoptPlanGenerations = 2;

  int NextLevel;
  bool IsReopt = false;
  if (Level < 1 && Samples >= Config.Level1Samples) {
    NextLevel = 1;
  } else if (Level < 2 && Samples >= Config.Level2Samples) {
    NextLevel = 2;
  } else if (Level == 2 && Pending < 0 &&
             PerMethod[Method].Reopts < Config.MaxReoptsPerMethod &&
             PlanGeneration >= PerMethod[Method].CompiledGeneration +
                                   ReoptPlanGenerations &&
             Samples >= 2 * Config.Level2Samples) {
    // The method was optimized against an earlier (possibly immature)
    // profile and is still hot: re-optimize with the current plan.
    NextLevel = 2;
    IsReopt = true;
  } else {
    return false;
  }

  // Cost-benefit check: estimated remaining time in this method,
  // assuming it keeps its observed share of the tick samples, must pay
  // for the compile. The ratio is also the request's priority.
  double Benefit = benefitRatio(VM, Method, NextLevel);
  if (Benefit < Config.CostBenefitFactor)
    return false;
  submitRequest(VM,
                {.Method = Method,
                 .Level = NextLevel,
                 .IsReopt = IsReopt,
                 .Priority = Benefit},
                currentPlan(VM));
  return true;
}

void AdaptiveSystem::install(vm::VirtualMachine &VM, CompileRequest R) {
  vm::CompiledMethod CM = R.Pending.get();
  uint64_t Waited = VM.cycles() - R.EnqueueCycle;
  if (DeoptCtl)
    DeoptCtl->noteInstall(CM);
  VM.installCompiled(std::move(CM));
  if (tel::TraceSink *Sink = VM.traceSink())
    Sink->event(tel::TraceEvent::compileInstall(
        VM.cycles(), 0, R.Method, static_cast<uint32_t>(R.Level), Waited));
  PerMethod[R.Method].CompiledGeneration = R.PlanGeneration;
  if (Stats.QueueInstalls == 0)
    Stats.FirstInstallCycle = VM.cycles();
  ++Stats.QueueInstalls;
  ++Stats.Recompilations;
  if (R.Warm)
    ++Stats.WarmInstalls;
  if (R.IsReopt) {
    ++PerMethod[R.Method].Reopts;
    ++Stats.Reoptimizations;
  } else if (R.DeoptRecompile) {
    // Repairing an invalidated level, not promoting; counted in the
    // aos.deopt.* stats at enqueue time.
  } else if (R.Level == 1) {
    ++Stats.PromotionsToL1;
  } else {
    ++Stats.PromotionsToL2;
  }
  // "On compile_install" policing: the compile ran against a snapshot
  // at least one latency old, so its speculation can be dead on
  // arrival — catch that now instead of waiting out a full tick.
  if (DeoptCtl)
    applyDeoptDecisions(VM, DeoptCtl->policeInstall(VM, R.Method));
}

std::shared_ptr<const opt::InlinePlan>
AdaptiveSystem::conservativePlan(vm::VirtualMachine &VM) {
  if (!ConservativePlan) {
    // The trivial oracle ignores the profile: this plan speculates on
    // nothing, never goes stale, and is shared by every pinned method.
    ConservativePlan = std::make_shared<const opt::InlinePlan>(
        trivialOracle().plan(VM.program(), VM.profile()));
  }
  return ConservativePlan;
}

void AdaptiveSystem::applyDeoptDecisions(
    vm::VirtualMachine &VM, const std::vector<DeoptDecision> &Decisions) {
  if (Decisions.empty())
    return;
  // A failed guard is direct evidence the profile moved: expire the
  // cached plan so the repairs compile against a plan that speculates
  // on the *new* dominant callees, not the ones that just failed.
  PlanAgeTicks = Config.PlanRefreshTicks;
  for (const DeoptDecision &D : Decisions) {
    // In-flight requests for the method were decided against plans that
    // embed the same dead assumption; drop them before re-enqueueing.
    DeoptCtl->stats().StaleRequestsDropped += Queue.dropMethod(D.Method);

    // Same cost-benefit score the promotion path computes, floored at
    // 1.0: the method was running deoptimized-slow, so repairing it
    // must not lose every eviction fight in a full queue.
    submitRequest(
        VM,
        {.Method = D.Method,
         .Level = D.Level,
         .Priority = std::max(1.0, benefitRatio(VM, D.Method, D.Level)),
         .Conservative = D.Conservative,
         .DeoptRecompile = true},
        D.Conservative ? conservativePlan(VM) : currentPlan(VM));
    ++DeoptCtl->stats().Recompiles;
  }
}

void AdaptiveSystem::onYieldpoint(vm::VirtualMachine &VM) {
  // The forced-invalidation storm (testing only) tears down every
  // AOS-installed version at every taken yieldpoint — the most hostile
  // deopt schedule expressible, which the differential fuzzer compares
  // byte-for-byte against a no-AOS run.
  if (DeoptCtl && Config.Deopt.ForceStormForTesting)
    applyDeoptDecisions(VM, DeoptCtl->storm(VM));
  if (Queue.depth() == 0)
    return;
  // How many times a request found stale at its install point is
  // re-enqueued against a fresh plan before installing anyway (the
  // progress guarantee for methods that stay hot across phases).
  constexpr uint32_t MaxReenqueues = 3;
  uint64_t Now = VM.cycles();
  bool Activity = false;
  while (std::optional<CompileRequest> R = Queue.popReady(Now)) {
    Activity = true;
    // Deopt backstop: the method was invalidated after this request was
    // admitted (its plan embeds the dead speculation, and the deopt
    // path has already enqueued the replacement) — drop it outright.
    // Conservative requests are exempt: they assume nothing, and must
    // make progress even under repeated invalidation.
    if (DeoptCtl && !R->Conservative &&
        R->CacheEpoch != VM.codeCache().invalidationEpoch(R->Method)) {
      ++DeoptCtl->stats().StaleRequestsDropped;
      continue;
    }
    // Install-point re-validation: the plan is `latency` cycles stale
    // by now. If its generation was superseded, or the quality monitor
    // declared a phase shift after the request was decided, the compile
    // would install code specialized for a profile that no longer
    // holds — drop it and re-enqueue against the fresh plan. Bounded by
    // MaxReenqueues so a method that stays hot across phases still
    // makes progress (the last re-enqueue already carries a fresh
    // plan). Conservative (pinned) requests skip this too: their plan
    // cannot go stale. Warm requests are likewise exempt — their plan
    // is *supposed* to predate the live profile; if the persisted
    // history was wrong, deopt/quality policing corrects the installed
    // code rather than the queue starving it.
    const prof::ProfileQualityMonitor *Monitor = VM.qualityMonitor();
    bool Stale = !R->Conservative && !R->Warm &&
                 (R->PlanGeneration < PlanGeneration ||
                  (Monitor &&
                   Monitor->phaseShiftCount() > R->PhaseShiftsSeen));
    if (Stale && R->Reenqueues < MaxReenqueues) {
      ++Stats.QueueStaleDrops;
      ++R->Reenqueues;
      // currentPlan rebuilds when a shift is pending; the new compile
      // replaces the one for the dropped plan.
      submitRequest(VM, std::move(*R), currentPlan(VM));
      continue;
    }
    install(VM, std::move(*R));
  }
  if (Activity)
    publishMetrics(VM);
}

void AdaptiveSystem::onTimerTick(vm::VirtualMachine &VM, bc::MethodId Top) {
  ++Stats.Ticks;
  ++PlanAgeTicks;
  // The sampled method is the promotion candidate this tick (plus, on a
  // real system, its callers; the plan covers their sites when they in
  // turn get hot). Each iteration may upgrade the previous one's
  // request (L1 pending -> L2) until the method's state is settled.
  // Cap on promotions processed per tick (compile queue backpressure).
  constexpr uint32_t MaxRecompilesPerTick = 4;
  for (uint32_t I = 0; I < MaxRecompilesPerTick; ++I)
    if (!maybePromote(VM, Top))
      break;
  // Guard policing rides the tick (the same cadence the quality monitor
  // uses): every tracked speculative version is re-checked against the
  // current profile.
  if (DeoptCtl)
    applyDeoptDecisions(VM, DeoptCtl->police(VM));
  publishMetrics(VM);
}

void AOSOptionGroup::parse(support::ArgParser &Args,
                           const vm::VMConfig &VMC) {
  // --osr only does anything when versions actually get replaced, so
  // it implies --aos too.
  UseAOS = Args.flag("--aos") || VMC.EnableOSR;
  uint64_t CompileJobs = Args.optionUInt("--compile-jobs", 0, 0, 64);
  if (CompileJobs > 0) {
    Config.CompileJobs = static_cast<uint32_t>(CompileJobs);
    UseAOS = true;
  }
  if (Args.present("--compile-latency-scale"))
    UseAOS = true;
  Config.CompileLatencyScale = Args.optionDouble(
      "--compile-latency-scale", Config.CompileLatencyScale, 0.0, 1e9);
  // Deoptimization: either option switches guard policing on (and
  // implies --aos). Plain --aos keeps deopt off, so pre-deopt runs stay
  // byte-identical.
  double DeoptThreshold =
      Args.optionDouble("--deopt-threshold", -1.0, 0.0, 100.0);
  if (DeoptThreshold >= 0.0) {
    Config.Deopt.Enabled = true;
    Config.Deopt.DominanceThresholdPct = DeoptThreshold;
    UseAOS = true;
  }
  uint64_t MaxDeopts = Args.optionUInt("--max-deopts", 0, 1, 1u << 20);
  if (MaxDeopts > 0) {
    Config.Deopt.Enabled = true;
    Config.Deopt.MaxDeoptsPerMethod = static_cast<uint32_t>(MaxDeopts);
    UseAOS = true;
  }
}

