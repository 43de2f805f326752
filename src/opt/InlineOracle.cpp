//===- opt/InlineOracle.cpp - Inlining policies -----------------------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//

#include "opt/InlineOracle.h"

#include "bytecode/Program.h"

#include <algorithm>

using namespace cbs;
using namespace cbs::bc;
using namespace cbs::opt;

InlineOracle::~InlineOracle() = default;

bool opt::chaMonomorphic(const Program &P, SelectorId Selector,
                         MethodId &Target) {
  Target = InvalidMethodId;
  for (size_t M = 0, E = P.numMethods(); M != E; ++M) {
    const Method &Meth = P.method(static_cast<MethodId>(M));
    if (!Meth.isVirtual() || Meth.Selector != Selector)
      continue;
    if (Target != InvalidMethodId)
      return false;
    Target = Meth.Id;
  }
  return Target != InvalidMethodId;
}

namespace {

/// Iterates every call site in the program, handing the visitor the
/// site id and the call instruction.
template <typename Fn> void forEachSite(const Program &P, Fn &&Visit) {
  for (size_t M = 0, E = P.numMethods(); M != E; ++M) {
    const Method &Meth = P.method(static_cast<MethodId>(M));
    for (const Instruction &I : Meth.Code)
      if (isCall(I.Op))
        Visit(I.Site, I);
  }
}

/// Adds the trivial-inlining decisions every oracle shares: tiny static
/// callees, and tiny unique-implementation virtual callees
/// (CHA devirtualization). Returns true if a decision was placed so
/// callers can skip further handling of the site.
bool trivialDecision(const Program &P, const Instruction &I,
                     InlineDecision &D) {
  if (I.Op == Opcode::InvokeStatic) {
    const Method &Callee = P.method(static_cast<MethodId>(I.A));
    if (Callee.sizeBytes() > TrivialSizeBytes)
      return false;
    D.K = InlineDecision::Kind::Direct;
    D.Target = Callee.Id;
    return true;
  }
  MethodId Target;
  if (!chaMonomorphic(P, static_cast<SelectorId>(I.A), Target))
    return false;
  if (P.method(Target).sizeBytes() > TrivialSizeBytes)
    return false;
  D.K = InlineDecision::Kind::Direct;
  D.Target = Target;
  return true;
}

/// Builds the guarded-target list for a virtual site: profile targets
/// whose share of the site distribution is at least \p MinShare, sized
/// under \p SizeThreshold, at most \p MaxTargets of them.
std::vector<GuardedTarget>
pickGuardedTargets(const Program &P, const prof::DCGSnapshot &DCG,
                   SiteId Site, SelectorId Selector, double MinShare,
                   uint32_t SizeThreshold, uint32_t MaxTargets) {
  std::vector<GuardedTarget> Result;
  auto Dist = DCG.siteDistribution(Site);
  if (Dist.empty())
    return Result;
  uint64_t SiteTotal = 0;
  for (const auto &[Edge, Weight] : Dist)
    SiteTotal += Weight;
  for (const auto &[Edge, Weight] : Dist) {
    if (Result.size() >= MaxTargets)
      break;
    double Share =
        static_cast<double>(Weight) / static_cast<double>(SiteTotal);
    if (Share < MinShare)
      break; // Distribution is sorted, so everything later is smaller.
    const Method &Callee = P.method(Edge.Callee);
    if (Callee.sizeBytes() > SizeThreshold)
      continue;
    GuardedTarget GT;
    GT.Target = Edge.Callee;
    GT.GuardClasses = P.hierarchy().receiversOf(Selector, Edge.Callee);
    if (GT.GuardClasses.empty())
      continue;
    Result.push_back(std::move(GT));
  }
  return Result;
}

} // namespace

//===----------------------------------------------------------------------===//
// TrivialOracle
//===----------------------------------------------------------------------===//

InlinePlan TrivialOracle::plan(const Program &P,
                               const prof::DCGSnapshot &) const {
  InlinePlan Plan;
  forEachSite(P, [&](SiteId Site, const Instruction &I) {
    InlineDecision D;
    if (trivialDecision(P, I, D))
      Plan.Decisions[Site] = D;
  });
  return Plan;
}

//===----------------------------------------------------------------------===//
// OldJikesOracle
//===----------------------------------------------------------------------===//

InlinePlan OldJikesOracle::plan(const Program &P,
                                const prof::DCGSnapshot &DCG) const {
  constexpr double HotEdgeFraction = 0.01; // the 1%-of-total-weight rule
  constexpr uint32_t HotSizeBytes = 60;    // enlarged threshold for hot edges
  InlinePlan Plan;
  forEachSite(P, [&](SiteId Site, const Instruction &I) {
    InlineDecision D;
    if (trivialDecision(P, I, D)) {
      Plan.Decisions[Site] = D;
      return;
    }
    // Everything non-trivial requires a *hot* edge: > 1% of total DCG
    // weight. Profile data below that is completely ignored.
    if (I.Op == Opcode::InvokeStatic) {
      const Method &Callee = P.method(static_cast<MethodId>(I.A));
      if (DCG.fraction({Site, Callee.Id}) > HotEdgeFraction &&
          Callee.sizeBytes() <= HotSizeBytes) {
        D.K = InlineDecision::Kind::Direct;
        D.Target = Callee.Id;
        Plan.Decisions[Site] = D;
      }
      return;
    }
    // Virtual: guarded inlining of the single hottest target, only if
    // its edge alone is hot.
    auto Dist = DCG.siteDistribution(Site);
    if (Dist.empty())
      return;
    const auto &[TopEdge, TopWeight] = Dist.front();
    if (DCG.fraction(TopEdge) <= HotEdgeFraction)
      return;
    const Method &Callee = P.method(TopEdge.Callee);
    if (Callee.sizeBytes() > HotSizeBytes)
      return;
    GuardedTarget GT;
    GT.Target = TopEdge.Callee;
    GT.GuardClasses = P.hierarchy().receiversOf(
        static_cast<SelectorId>(I.A), TopEdge.Callee);
    if (GT.GuardClasses.empty())
      return;
    D.K = InlineDecision::Kind::Guarded;
    D.Guarded.push_back(std::move(GT));
    Plan.Decisions[Site] = D;
  });
  return Plan;
}

//===----------------------------------------------------------------------===//
// NewJikesOracle
//===----------------------------------------------------------------------===//

InlinePlan NewJikesOracle::plan(const Program &P,
                                const prof::DCGSnapshot &DCG) const {
  // threshold(edge) = Base + Slope * (100 * edge fraction), capped at
  // Params::MaxSizeBytes.
  constexpr uint32_t BaseSizeBytes = 24;
  constexpr double SlopePerPercent = 10.0;
  // A callee must account for this share of its site's distribution
  // to be considered for guarded inlining (the paper's 40% rule).
  constexpr double GuardedMinShare = 0.40;
  constexpr uint32_t MaxGuardedTargets = 2;
  InlinePlan Plan;
  forEachSite(P, [&](SiteId Site, const Instruction &I) {
    InlineDecision D;
    if (trivialDecision(P, I, D)) {
      Plan.Decisions[Site] = D;
      return;
    }

    // Edge weight feeds a bounded linear size threshold: hotter sites
    // may inline larger callees; there is no hot/cold cliff.
    auto thresholdFor = [&](double EdgeFraction) {
      double T = BaseSizeBytes + SlopePerPercent * (100.0 * EdgeFraction);
      return static_cast<uint32_t>(
          std::min<double>(T, Config.MaxSizeBytes));
    };

    if (I.Op == Opcode::InvokeStatic) {
      const Method &Callee = P.method(static_cast<MethodId>(I.A));
      if (Callee.sizeBytes() <=
          thresholdFor(DCG.fraction({Site, Callee.Id}))) {
        D.K = InlineDecision::Kind::Direct;
        D.Target = Callee.Id;
        Plan.Decisions[Site] = D;
      }
      return;
    }

    // Virtual: the 40% distribution rule picks guarded targets.
    uint64_t SiteTotal = 0;
    for (const auto &[Edge, Weight] : DCG.siteDistribution(Site))
      SiteTotal += Weight;
    double SiteFraction =
        DCG.totalWeight() == 0
            ? 0.0
            : static_cast<double>(SiteTotal) /
                  static_cast<double>(DCG.totalWeight());
    std::vector<GuardedTarget> Targets = pickGuardedTargets(
        P, DCG, Site, static_cast<SelectorId>(I.A), GuardedMinShare,
        thresholdFor(SiteFraction), MaxGuardedTargets);
    if (Targets.empty())
      return;
    D.K = InlineDecision::Kind::Guarded;
    D.Guarded = std::move(Targets);
    Plan.Decisions[Site] = D;
  });
  return Plan;
}

//===----------------------------------------------------------------------===//
// J9Oracle
//===----------------------------------------------------------------------===//

InlinePlan J9Oracle::plan(const Program &P,
                          const prof::DCGSnapshot &DCG) const {
  // Static heuristics: inline anything at most this large.
  constexpr uint32_t StaticSizeBytes = 48;
  // Sites below this fraction of total weight (including absent
  // sites) are cold: the static decision is overridden to None.
  constexpr double ColdSiteFraction = 0.0008;
  // Do not trust (and do not suppress with) a profile until it has
  // accumulated at least this much weight; an immature profile makes
  // every unsampled site look cold. Real systems gate their dynamic
  // heuristics the same way.
  constexpr uint64_t MinProfileWeight = 48;
  // Hot sites: threshold = Static + Boost * (100 * site fraction).
  constexpr double BoostPerPercent = 6.0;
  constexpr uint32_t MaxSizeBytes = 110;
  // The 40% rule is the *new Jikes* inliner's (§5.1); J9's dynamic
  // target selection admits secondary targets with a smaller share
  // (its static heuristics already guard-inline both implementations
  // of a 2-way polymorphic site).
  constexpr double GuardedMinShare = 0.15;
  constexpr uint32_t MaxGuardedTargets = 2;
  InlinePlan Plan;
  bool Dynamic = Config.UseDynamic && DCG.totalWeight() >= MinProfileWeight;

  forEachSite(P, [&](SiteId Site, const Instruction &I) {
    InlineDecision D;
    bool Trivial = trivialDecision(P, I, D);

    uint64_t SiteTotal = 0;
    for (const auto &[Edge, Weight] : DCG.siteDistribution(Site))
      SiteTotal += Weight;
    double SiteFraction =
        DCG.totalWeight() == 0
            ? 0.0
            : static_cast<double>(SiteTotal) /
                  static_cast<double>(DCG.totalWeight());

    // Dynamic heuristics: cold sites override the static decision and
    // are not inlined at all (§5.2). Trivial callees are exempt — the
    // guard is cheaper than the call either way.
    if (Dynamic && !Trivial && SiteFraction < ColdSiteFraction)
      return;
    if (Trivial) {
      Plan.Decisions[Site] = D;
      return;
    }

    uint32_t Threshold = StaticSizeBytes;
    if (Dynamic) {
      double T = StaticSizeBytes + BoostPerPercent * (100.0 * SiteFraction);
      Threshold = static_cast<uint32_t>(std::min<double>(T, MaxSizeBytes));
    }

    if (I.Op == Opcode::InvokeStatic) {
      const Method &Callee = P.method(static_cast<MethodId>(I.A));
      if (Callee.sizeBytes() <= Threshold) {
        D.K = InlineDecision::Kind::Direct;
        D.Target = Callee.Id;
        Plan.Decisions[Site] = D;
      }
      return;
    }

    // Virtual sites.
    SelectorId Selector = static_cast<SelectorId>(I.A);
    if (Dynamic) {
      std::vector<GuardedTarget> Targets =
          pickGuardedTargets(P, DCG, Site, Selector, GuardedMinShare,
                             Threshold, MaxGuardedTargets);
      if (Targets.empty())
        return;
      D.K = InlineDecision::Kind::Guarded;
      D.Guarded = std::move(Targets);
      Plan.Decisions[Site] = D;
      return;
    }

    // Static-only virtual handling: CHA devirtualization under the
    // static threshold; polymorphic sites get guarded inlining of every
    // implementation when there are at most two, all under threshold.
    MethodId Mono;
    if (chaMonomorphic(P, Selector, Mono)) {
      if (P.method(Mono).sizeBytes() <= Threshold) {
        D.K = InlineDecision::Kind::Direct;
        D.Target = Mono;
        Plan.Decisions[Site] = D;
      }
      return;
    }
    std::vector<MethodId> Impls;
    for (size_t M = 0, E = P.numMethods(); M != E; ++M) {
      const Method &Meth = P.method(static_cast<MethodId>(M));
      if (Meth.isVirtual() && Meth.Selector == Selector)
        Impls.push_back(Meth.Id);
    }
    if (Impls.size() > 2)
      return;
    for (MethodId Impl : Impls) {
      if (P.method(Impl).sizeBytes() > Threshold)
        return;
    }
    for (MethodId Impl : Impls) {
      GuardedTarget GT;
      GT.Target = Impl;
      GT.GuardClasses = P.hierarchy().receiversOf(Selector, Impl);
      if (GT.GuardClasses.empty())
        return;
      D.Guarded.push_back(std::move(GT));
    }
    D.K = InlineDecision::Kind::Guarded;
    Plan.Decisions[Site] = D;
  });
  return Plan;
}
