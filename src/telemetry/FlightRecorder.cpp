//===- telemetry/FlightRecorder.cpp - Anomaly-triggered dumps ----------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//

#include "telemetry/FlightRecorder.h"

#include "support/Json.h"

using namespace cbs;
using namespace cbs::tel;

/// Rolling metric-delta windows retained.
static constexpr size_t WindowCapacity = 32;
/// Deoptimizations within one window that count as a storm.
static constexpr uint64_t DeoptStormThreshold = 4;

FlightRecorder::FlightRecorder(FlightRecorderConfig Config)
    : Config(Config), Ring(Config.EventCapacity) {
  WindowRing.reserve(WindowCapacity);
}

void FlightRecorder::event(const TraceEvent &E) {
  Ring.event(E);
  switch (E.Kind) {
  case EventKind::PhaseShift:
    trigger("phase_shift", E.Cycles);
    break;
  case EventKind::Trap:
    trigger("trap", E.Cycles);
    break;
  case EventKind::SampleDrop:
    DropsThisWindow += E.C;
    if (Config.DropSpikeThreshold != 0 && !DropSpikeFired &&
        DropsThisWindow >= Config.DropSpikeThreshold) {
      // One spike dump per window: a saturated buffer would otherwise
      // flood the dump list with copies of the same ring.
      DropSpikeFired = true;
      trigger("drop_spike", E.Cycles);
    }
    break;
  case EventKind::Deopt:
    ++DeoptsThisWindow;
    if (!DeoptStormFired && DeoptsThisWindow >= DeoptStormThreshold) {
      // Same once-per-window rule as drop_spike: a storm by definition
      // keeps firing, one ring copy per window is enough.
      DeoptStormFired = true;
      trigger("deopt_storm", E.Cycles);
    }
    break;
  default:
    break;
  }
}

void FlightRecorder::noteWindow(const RecorderWindow &W) {
  if (WindowRing.size() < WindowCapacity)
    WindowRing.push_back(W);
  else
    WindowRing[WindowsTotal % WindowCapacity] = W;
  ++WindowsTotal;
  DropsThisWindow = 0;
  DropSpikeFired = false;
  DeoptsThisWindow = 0;
  DeoptStormFired = false;

  if (Config.OverheadBudgetPct > 0.0) {
    bool Over = static_cast<double>(W.OverheadBp) >
                Config.OverheadBudgetPct * 100.0;
    // Rising edge only: the run-total fraction moves slowly, so once
    // over budget it tends to stay there for many windows.
    if (Over && !OverBudget)
      trigger("overhead_budget", W.Cycles);
    OverBudget = Over;
  }
}

std::vector<RecorderWindow> FlightRecorder::windows() const {
  if (WindowsTotal <= WindowRing.size())
    return WindowRing;
  std::vector<RecorderWindow> Out;
  Out.reserve(WindowRing.size());
  size_t Oldest = WindowsTotal % WindowRing.size();
  for (size_t I = 0; I != WindowRing.size(); ++I)
    Out.push_back(WindowRing[(Oldest + I) % WindowRing.size()]);
  return Out;
}

void FlightRecorder::requestDump(const std::string &Trigger, uint64_t Cycles) {
  trigger(Trigger, Cycles);
}

void FlightRecorder::trigger(const std::string &Why, uint64_t Cycles) {
  ++Triggers;
  if (Dumps.size() >= Config.MaxDumps)
    return;
  Dump D;
  D.Trigger = Why;
  D.Cycles = Cycles;
  D.TotalEventsAtDump = Ring.totalEvents();
  D.Events = Ring.snapshot();
  D.Windows = windows();
  Dumps.push_back(std::move(D));
}

namespace {

void writeEvent(json::JsonWriter &W, const TraceEvent &E) {
  W.beginObject();
  W.key("kind");
  W.value(eventKindName(E.Kind));
  W.key("thread");
  W.value(static_cast<uint64_t>(E.Thread));
  W.key("cycles");
  W.value(E.Cycles);
  W.key("a");
  W.value(static_cast<uint64_t>(E.A));
  W.key("b");
  W.value(static_cast<uint64_t>(E.B));
  W.key("c");
  W.value(E.C);
  W.endObject();
}

void writeWindow(json::JsonWriter &W, const RecorderWindow &Win) {
  W.beginObject();
  W.key("window");
  W.value(Win.Index);
  W.key("tick");
  W.value(Win.Tick);
  W.key("cycles");
  W.value(Win.Cycles);
  W.key("deltaCycles");
  W.value(Win.DeltaCycles);
  W.key("deltaSamples");
  W.value(Win.DeltaSamples);
  W.key("deltaDrops");
  W.value(Win.DeltaDrops);
  W.key("deltaFlushes");
  W.value(Win.DeltaFlushes);
  W.key("deltaProfilingCycles");
  W.value(Win.DeltaProfilingCycles);
  W.key("overlapBp");
  W.value(Win.OverlapBp);
  W.key("overheadBp");
  W.value(Win.OverheadBp);
  W.endObject();
}

} // namespace

void FlightRecorder::writeJson(json::JsonWriter &W) const {
  W.beginObject();
  W.key("eventCapacity");
  W.value(static_cast<uint64_t>(Config.EventCapacity));
  W.key("totalEvents");
  W.value(Ring.totalEvents());
  W.key("perKind");
  W.beginObject();
  for (unsigned K = 0; K != NumEventKinds; ++K) {
    if (Ring.countOf(static_cast<EventKind>(K)) == 0)
      continue;
    W.key(eventKindName(static_cast<EventKind>(K)));
    W.value(Ring.countOf(static_cast<EventKind>(K)));
  }
  W.endObject();
  W.key("triggers");
  W.value(Triggers);
  W.key("dumps");
  W.beginArray();
  for (const Dump &D : Dumps) {
    W.beginObject();
    W.key("trigger");
    W.value(D.Trigger);
    W.key("cycles");
    W.value(D.Cycles);
    W.key("totalEventsAtDump");
    W.value(D.TotalEventsAtDump);
    W.key("windows");
    W.beginArray();
    for (const RecorderWindow &Win : D.Windows)
      writeWindow(W, Win);
    W.endArray();
    W.key("events");
    W.beginArray();
    for (const TraceEvent &E : D.Events)
      writeEvent(W, E);
    W.endArray();
    W.endObject();
  }
  W.endArray();
  W.endObject();
}

std::string FlightRecorder::toJson() const {
  json::JsonWriter W;
  writeJson(W);
  return W.take();
}
