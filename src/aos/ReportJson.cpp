//===- aos/ReportJson.cpp - Machine-readable self-observability report ----===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//

#include "aos/ReportJson.h"

#include "aos/AdaptiveSystem.h"
#include "aos/DeoptController.h"
#include "profiling/QualityMonitor.h"
#include "support/Json.h"
#include "telemetry/FlightRecorder.h"
#include "telemetry/MetricRegistry.h"
#include "vm/VirtualMachine.h"

using namespace cbs;
using namespace cbs::aos;

namespace {

uint64_t gaugeOrZero(const tel::MetricRegistry &Metrics, const char *Name) {
  const tel::Gauge *G = Metrics.findGauge(Name);
  return G ? static_cast<uint64_t>(*G) : 0;
}

} // namespace

std::string aos::buildReportJson(const ReportInputs &In) {
  vm::VirtualMachine &VM = *In.VM;
  // metrics() refreshes the derived gauges (code.*, heap.*) before we
  // read them.
  const tel::MetricRegistry &Metrics = VM.metrics();
  const vm::VMStats &Stats = VM.stats();
  uint64_t VmCycles = Stats.Cycles;
  uint64_t OvTotal = VM.overheadCycles();
  auto FractionPct = [VmCycles](uint64_t Cycles) {
    return VmCycles == 0 ? 0.0
                         : 100.0 * static_cast<double>(Cycles) /
                               static_cast<double>(VmCycles);
  };

  json::JsonWriter W;
  W.beginObject();
  W.key("workload");
  W.value(In.Workload);
  W.key("size");
  W.value(In.Size);
  W.key("seed");
  W.value(In.Seed);
  W.key("state");
  W.value(In.State);
  W.key("cycles");
  W.value(VmCycles);

  W.key("quality");
  if (const prof::ProfileQualityMonitor *Monitor = VM.qualityMonitor()) {
    Monitor->writeJson(W);
  } else {
    // The monitor exists whenever Quality.EveryTicks != 0 (cbsvm report
    // always arms it); an empty object keeps the schema stable for
    // callers that didn't.
    W.beginObject();
    W.endObject();
  }

  W.key("overhead");
  W.beginObject();
  W.key("components");
  W.beginArray();
  auto Component = [&](const char *Name, uint64_t Cycles) {
    W.beginObject();
    W.key("name");
    W.value(Name);
    W.key("cycles");
    W.value(Cycles);
    W.key("fractionPct");
    W.value(FractionPct(Cycles));
    W.endObject();
  };
#define CBSVM_OVERHEAD_COMPONENT(Field, Name, Kind) Component(Name, Stats.Field);
  CBSVM_VM_OVERHEAD_METRICS(CBSVM_OVERHEAD_COMPONENT)
#undef CBSVM_OVERHEAD_COMPONENT
  W.endArray();
  W.key("totalCycles");
  W.value(OvTotal);
  W.key("vmCycles");
  W.value(VmCycles);
  W.key("totalFractionPct");
  W.value(FractionPct(OvTotal));
  W.endObject();

  if (In.AOS) {
    const AOSStats &A = In.AOS->stats();
    W.key("aos");
    W.beginObject();
    W.key("recompilations");
    W.value(A.Recompilations);
    W.key("promotionsToL1");
    W.value(A.PromotionsToL1);
    W.key("promotionsToL2");
    W.value(A.PromotionsToL2);
    W.key("reoptimizations");
    W.value(A.Reoptimizations);
    W.key("plansComputed");
    W.value(A.PlansComputed);
    W.key("phaseShiftReplans");
    W.value(A.PhaseShiftReplans);
    W.key("queue");
    W.beginObject();
    W.key("depth");
    W.value(static_cast<uint64_t>(In.AOS->queueDepth()));
    W.key("enqueued");
    W.value(A.QueueEnqueued);
    W.key("installs");
    W.value(A.QueueInstalls);
    W.key("stale_drops");
    W.value(A.QueueStaleDrops);
    W.key("coalesced");
    W.value(A.QueueCoalesced);
    W.key("dropped");
    W.value(A.QueueDropped);
    W.key("firstInstallCycle");
    W.value(A.FirstInstallCycle);
    W.endObject();
    if (In.AOS->warmStarted()) {
      W.key("warm");
      W.beginObject();
      W.key("enqueued");
      W.value(A.WarmEnqueued);
      W.key("installs");
      W.value(A.WarmInstalls);
      W.endObject();
    }
    if (const DeoptController *DC = In.AOS->deoptController()) {
      const DeoptStats &D = DC->stats();
      W.key("deopt");
      W.beginObject();
      W.key("guardChecks");
      W.value(D.GuardChecks);
      W.key("guardFailures");
      W.value(D.GuardFailures);
      W.key("count");
      W.value(D.Deopts);
      W.key("phaseShiftDeopts");
      W.value(D.PhaseShiftDeopts);
      W.key("conservativePins");
      W.value(D.ConservativePins);
      W.key("staleRequestsDropped");
      W.value(D.StaleRequestsDropped);
      W.key("recompiles");
      W.value(D.Recompiles);
      W.endObject();
    }
    W.endObject();
  }

  if (VM.config().EnableOSR) {
    W.key("osr");
    W.beginObject();
    W.key("entries");
    W.value(Stats.OsrEntries);
    W.key("exits");
    W.value(Stats.OsrExits);
    W.key("graveyardInstructions");
    W.value(gaugeOrZero(Metrics, "code.graveyard_instructions"));
    W.key("graveyardReclaimedInstructions");
    W.value(gaugeOrZero(Metrics, "code.graveyard_reclaimed_instructions"));
    W.key("graveyardReclaims");
    W.value(gaugeOrZero(Metrics, "code.graveyard_reclaims"));
    W.endObject();
  }

  if (In.Repo.Present) {
    W.key("repo");
    W.beginObject();
    W.key("dir");
    W.value(In.Repo.Dir);
    W.key("loaded");
    W.value(In.Repo.Loaded);
    W.key("rejected");
    W.value(In.Repo.Rejected);
    W.key("runs");
    W.value(In.Repo.Runs);
    W.key("committed");
    W.value(In.Repo.Committed);
    W.key("diagnostic");
    W.value(In.Repo.Diagnostic);
    W.endObject();
  }

  W.key("flightRecorder");
  if (In.Recorder) {
    In.Recorder->writeJson(W);
  } else {
    W.beginObject();
    W.endObject();
  }
  W.endObject();
  return W.take();
}
