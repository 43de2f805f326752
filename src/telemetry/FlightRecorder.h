//===- telemetry/FlightRecorder.h - Anomaly-triggered dumps -----*- C++ -*-===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A black-box flight recorder for the VM: a bounded ring of recent
/// TraceEvents (it *is* a TraceSink, so it can serve as the VM's trace
/// sink directly) plus a bounded ring of rolling metric-delta windows
/// the VM feeds at each quality-monitor boundary. When an anomaly
/// fires, the recorder freezes a copy of both rings into a Dump:
///
///   phase_shift      a PhaseShift event arrived (the quality monitor
///                    saw the hot set move)
///   drop_spike       SampleDrop events accumulated more dropped
///                    samples than DropSpikeThreshold within one window
///   deopt_storm      Deopt events reached DeoptStormThreshold within
///                    one window (the adaptive system is thrashing
///                    between plans faster than it can recompile)
///   overhead_budget  a window note reported profiling overhead above
///                    OverheadBudgetPct (fires on the crossing, not on
///                    every subsequent window)
///   trap             the VM trapped fatally
///   <on demand>      requestDump("...") — cbsvm report uses
///                    "end_of_run"
///
/// Dumps are capped at MaxDumps (triggers past the cap are still
/// counted), rendered as deterministic JSON via writeJson(). Like
/// every sink, the recorder is an observer: installing one never
/// changes what the run computes, and with no recorder installed the
/// VM pays only its usual per-emission-site null check.
///
//===----------------------------------------------------------------------===//

#ifndef CBSVM_TELEMETRY_FLIGHTRECORDER_H
#define CBSVM_TELEMETRY_FLIGHTRECORDER_H

#include "telemetry/TraceSink.h"

#include <cstdint>
#include <string>
#include <vector>

namespace cbs::json {
class JsonWriter;
}

namespace cbs::tel {

struct FlightRecorderConfig {
  /// Events retained in the ring (the dump tail).
  size_t EventCapacity = 256;
  /// Dumps retained; later triggers only bump the trigger count.
  size_t MaxDumps = 8;
  /// Dropped samples within one window that count as a spike (0 =
  /// trigger disabled).
  uint64_t DropSpikeThreshold = 256;
  /// Profiling overhead (percent of all cycles) above which a window
  /// note trips the budget trigger (0 = trigger disabled).
  double OverheadBudgetPct = 0.0;
};

/// One rolling observation: deltas since the previous window note.
/// Filled by the VM from its own counters (the recorder does not read
/// the registry).
struct RecorderWindow {
  uint64_t Index = 0;
  uint64_t Tick = 0;
  uint64_t Cycles = 0;
  uint64_t DeltaCycles = 0;
  uint64_t DeltaSamples = 0;
  uint64_t DeltaDrops = 0;
  uint64_t DeltaFlushes = 0;
  uint64_t DeltaProfilingCycles = 0;
  uint64_t OverlapBp = 0;  ///< quality-monitor overlap, basis points
  uint64_t OverheadBp = 0; ///< run-total overhead fraction, basis points
};

class FlightRecorder : public TraceSink {
public:
  explicit FlightRecorder(FlightRecorderConfig Config = {});

  /// TraceSink: records into the ring and checks the event-driven
  /// anomaly triggers.
  void event(const TraceEvent &E) override;

  /// Window boundary: append a rolling delta record, check the budget
  /// trigger, and reset the per-window drop accumulator.
  void noteWindow(const RecorderWindow &W);

  /// On-demand dump (subject to the same MaxDumps cap).
  void requestDump(const std::string &Trigger, uint64_t Cycles);

  struct Dump {
    std::string Trigger;
    uint64_t Cycles = 0;
    uint64_t TotalEventsAtDump = 0;
    std::vector<TraceEvent> Events;      ///< ring tail, oldest first
    std::vector<RecorderWindow> Windows; ///< rolling deltas, oldest first
  };

  const FlightRecorderConfig &config() const { return Config; }
  uint64_t totalEvents() const { return Ring.totalEvents(); }
  uint64_t countOf(EventKind K) const { return Ring.countOf(K); }
  /// Anomalies observed (dumps taken + triggers past the MaxDumps cap).
  uint64_t triggerCount() const { return Triggers; }
  const std::vector<Dump> &dumps() const { return Dumps; }
  std::vector<RecorderWindow> windows() const;

  /// {"eventCapacity":..., "totalEvents":..., "perKind":{...},
  ///  "triggers":..., "dumps":[...]} — deterministic.
  void writeJson(json::JsonWriter &W) const;
  std::string toJson() const;

private:
  void trigger(const std::string &Why, uint64_t Cycles);

  FlightRecorderConfig Config;
  RingBufferSink Ring;
  std::vector<RecorderWindow> WindowRing; ///< ring indexed by WindowsTotal
  uint64_t WindowsTotal = 0;
  uint64_t DropsThisWindow = 0;
  bool DropSpikeFired = false;
  uint64_t DeoptsThisWindow = 0;
  bool DeoptStormFired = false;
  bool OverBudget = false;
  uint64_t Triggers = 0;
  std::vector<Dump> Dumps;
};

} // namespace cbs::tel

#endif // CBSVM_TELEMETRY_FLIGHTRECORDER_H
