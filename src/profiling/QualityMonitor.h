//===- profiling/QualityMonitor.h - Online DCG convergence ------*- C++ -*-===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The online profile-quality monitor: the self-observability analogue
/// of the paper's offline accuracy evaluation (§6.2). Every K timer
/// ticks the VM hands the monitor a fresh DCGSnapshot; the monitor
/// compares it against the previous window's snapshot and publishes
///
///  - successive-window overlap (the §6.2 metric applied to the
///    profile's own history instead of a perfect reference),
///  - hot-edge churn: how many of the top-N edges appeared/vanished,
///  - a per-edge confidence estimate from sample counts: an edge with
///    weight w has a relative standard error ~ 1/sqrt(w) under
///    independent sampling, so confidence = 100 * (1 - 1/sqrt(w)).
///
/// A window whose overlap with its predecessor falls below the
/// configured threshold is flagged as a *phase shift*: the program's
/// hot set changed faster than the profile can be trusted, so plan
/// consumers (the AOS) should rebuild rather than serve stale
/// decisions. Detection quality depends on the repository being
/// recency-weighted — enable profile decay (ProfilerOptions::
/// DecayEveryTicks) or a cumulative profile's history will mask the
/// shift.
///
/// The monitor is pure bookkeeping over immutable snapshots plus
/// metric publication (`dcg.quality.*`); it emits no trace events and
/// charges no cycles itself — the VM owns both of those decisions.
/// Determinism: outputs are a pure function of the snapshot sequence,
/// so they are byte-identical at any compile-job or job count.
///
//===----------------------------------------------------------------------===//

#ifndef CBSVM_PROFILING_QUALITYMONITOR_H
#define CBSVM_PROFILING_QUALITYMONITOR_H

#include "profiling/DCGSnapshot.h"
#include "telemetry/MetricRegistry.h"

#include <cstdint>
#include <vector>

namespace cbs::json {
class JsonWriter;
}

namespace cbs::prof {

struct QualityMonitorParams {
  /// Take a quality window every this many timer ticks (0 = monitor
  /// disabled; the VM then constructs no monitor at all, keeping the
  /// disarmed configuration free).
  uint32_t EveryTicks = 0;
  /// A window whose overlap with its predecessor is below this
  /// percentage is a phase shift.
  double PhaseShiftOverlapPct = 50.0;
  /// Size of the hot set tracked for churn accounting.
  size_t HotEdges = 16;
};

/// One quality observation: the monitor's view of the profile at a
/// window boundary.
struct QualityWindow {
  uint64_t Index = 0;  ///< 1-based window number
  uint64_t Tick = 0;   ///< timer tick at which the window closed
  uint64_t Cycles = 0; ///< virtual-cycle timestamp
  size_t Edges = 0;
  uint64_t TotalWeight = 0;
  /// Overlap with the previous window's snapshot (100 for the first
  /// window: no predecessor, vacuously converged).
  double OverlapPct = 100.0;
  /// Hot-set churn vs the previous window.
  uint32_t HotNew = 0;
  uint32_t HotVanished = 0;
  /// Mean per-edge confidence over the snapshot (0 when empty).
  double MeanConfidencePct = 0.0;
  bool PhaseShift = false;
};

class ProfileQualityMonitor {
public:
  ProfileQualityMonitor(QualityMonitorParams Params, tel::MetricRegistry &R);

  /// Closes one window: compares \p Snap against the previous window,
  /// appends to the history, and refreshes the dcg.quality.* metrics.
  /// Returns the window just recorded.
  const QualityWindow &onWindow(const DCGSnapshot &Snap, uint64_t Tick,
                                uint64_t Cycles);

  const QualityMonitorParams &params() const { return Params; }
  const std::vector<QualityWindow> &history() const { return History; }
  uint64_t windowCount() const { return History.size(); }
  uint64_t phaseShiftCount() const { return PhaseShifts; }
  /// Overlap of the most recent window (100 before the first window).
  double lastOverlapPct() const {
    return History.empty() ? 100.0 : History.back().OverlapPct;
  }
  /// True once at least two windows exist and the last one was not a
  /// phase shift: the profile currently describes the program.
  bool converged() const {
    return History.size() >= 2 && !History.back().PhaseShift;
  }

  /// Confidence in an edge of weight \p Weight as a percentage:
  /// 100 * (1 - 1/sqrt(w)), clamped at 0 (a single sample says nothing
  /// about the weight's stability).
  static double edgeConfidencePct(uint64_t Weight);

  /// {"everyTicks":..., "phaseThresholdPct":..., "hotEdges":...,
  ///  "phaseShifts":..., "windows":[...]} — deterministic, used by
  /// `cbsvm report --json` and the determinism tests.
  void writeJson(json::JsonWriter &W) const;

private:
  /// Top-HotEdges edges by (weight desc, key asc), returned sorted by
  /// key for set comparison.
  std::vector<CallEdge> hotSet(const DCGSnapshot &S) const;

  QualityMonitorParams Params;

  tel::Counter &Windows;          // dcg.quality.windows
  tel::Counter &PhaseShiftCount;  // dcg.quality.phase_shifts
  tel::Gauge &OverlapBp;          // dcg.quality.overlap_bp
  tel::Gauge &HotNewGauge;        // dcg.quality.hot_new
  tel::Gauge &HotVanishedGauge;   // dcg.quality.hot_vanished
  tel::Gauge &EdgesGauge;         // dcg.quality.edges
  tel::Gauge &WeightGauge;        // dcg.quality.total_weight
  tel::Gauge &ConfidenceBp;       // dcg.quality.mean_confidence_bp
  tel::Histogram &OverlapHist;    // dcg.quality.overlap_pct
  tel::Histogram &ConfidenceHist; // dcg.quality.edge_confidence_pct

  DCGSnapshot Prev;
  std::vector<CallEdge> PrevHot;
  std::vector<QualityWindow> History;
  uint64_t PhaseShifts = 0;
  bool HavePrev = false;
};

} // namespace cbs::prof

#endif // CBSVM_PROFILING_QUALITYMONITOR_H
