//===- aos/ReportJson.h - Machine-readable self-observability report -*- C++//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds the machine-readable report that `cbsvm report --json` emits:
/// one JSON object with the run header (workload/size/seed/state/cycles),
/// the quality-monitor timeline, the overhead attribution, the AOS and
/// deoptimization statistics when an adaptive system was attached, the
/// OSR section when VMConfig::EnableOSR was set, and the flight-recorder
/// dumps. It is the one report model: the driver's text views are
/// json::writeText of this document. Tests pin the schema — the
/// top-level sections and their keys are part of the tool's contract
/// and are covered by ReportSchemaTest.
///
//===----------------------------------------------------------------------===//

#ifndef CBSVM_AOS_REPORTJSON_H
#define CBSVM_AOS_REPORTJSON_H

#include "vm/VMStats.h"

#include <cstdint>
#include <string>

namespace cbs::tel {
class FlightRecorder;
}

namespace cbs::vm {
class VirtualMachine;
}

namespace cbs::aos {

class AdaptiveSystem;

/// The overhead.* components in the order of the report's
/// overhead.components array: the overhead rows of CBSVM_VM_METRICS
/// (see vm/VMStats.h).
inline constexpr const char *OverheadComponentNames[] = {
#define CBSVM_OVERHEAD_NAME(Field, Name, Kind) Name,
    CBSVM_VM_OVERHEAD_METRICS(CBSVM_OVERHEAD_NAME)
#undef CBSVM_OVERHEAD_NAME
};

/// Profile-repository interaction of the run (`--profile-repo`): did a
/// persisted entry load, was one rejected (and why), and what the
/// shutdown commit did. Filled by the driver; the section is emitted
/// only when Present.
struct RepoReport {
  bool Present = false;
  std::string Dir;
  uint64_t Loaded = 0;    ///< 1 when a usable entry seeded the warm start
  uint64_t Rejected = 0;  ///< 1 when an entry existed but was unusable
  uint64_t Runs = 0;      ///< run counter of the loaded entry (0 on miss)
  uint64_t Committed = 0; ///< 1 when the shutdown commit succeeded
  std::string Diagnostic; ///< rejection/commit diagnostic ("" when clean)
};

/// Everything the report builder reads. \p VM is required; \p AOS and
/// \p Recorder may be null (their sections are omitted / emitted empty).
struct ReportInputs {
  std::string Workload;
  std::string Size;
  uint64_t Seed = 0;
  std::string State;
  vm::VirtualMachine *VM = nullptr; ///< non-const: metrics() refreshes gauges
  const AdaptiveSystem *AOS = nullptr;
  const tel::FlightRecorder *Recorder = nullptr;
  RepoReport Repo;
};

/// Serializes the full report as one compact JSON object. Top-level keys,
/// in order: workload, size, seed, state, cycles, quality, overhead,
/// [aos], [osr], [repo], flightRecorder — aos only when an adaptive
/// system was attached, osr only when the run had VMConfig::EnableOSR,
/// repo only when the run used --profile-repo.
std::string buildReportJson(const ReportInputs &In);

} // namespace cbs::aos

#endif // CBSVM_AOS_REPORTJSON_H
