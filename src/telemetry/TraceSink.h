//===- telemetry/TraceSink.h - Trace event consumers ------------*- C++ -*-===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Consumers of the VM's structured trace events. The VM holds a plain
/// `TraceSink *` that defaults to null; every emission site is guarded
/// by that single null check, so tracing preserves the paper's
/// free-when-disarmed property — with no sink installed the only cost
/// is a branch on already-slow paths (ticks, samples, compiles, GC),
/// and the per-instruction interpreter loop is untouched.
///
/// Two sinks ship with the library:
///  - RingBufferSink: retains the most recent N events with per-kind
///    totals over the whole run; no allocation after construction.
///  - ChromeTraceSink: records everything and renders the Chrome
///    `trace_event` JSON format (load in chrome://tracing / Perfetto).
///    Timestamps are virtual cycles; compile start/finish become B/E
///    duration pairs, everything else instant events.
///
//===----------------------------------------------------------------------===//

#ifndef CBSVM_TELEMETRY_TRACESINK_H
#define CBSVM_TELEMETRY_TRACESINK_H

#include "telemetry/TraceEvent.h"

#include <array>
#include <functional>
#include <string>
#include <vector>

namespace cbs::tel {

class TraceSink {
public:
  virtual ~TraceSink();
  virtual void event(const TraceEvent &E) = 0;
};

/// Keeps the last \p Capacity events plus exact per-kind counts for the
/// entire run (the counts are what tests cross-check against VMStats).
class RingBufferSink : public TraceSink {
public:
  explicit RingBufferSink(size_t Capacity = 4096);

  void event(const TraceEvent &E) override;

  /// Events observed over the whole run (not just those retained).
  uint64_t totalEvents() const { return Total; }
  uint64_t countOf(EventKind K) const {
    return PerKind[static_cast<size_t>(K)];
  }

  /// Retained events, oldest first.
  std::vector<TraceEvent> snapshot() const;

private:
  std::vector<TraceEvent> Ring;
  size_t Capacity;
  uint64_t Total = 0;
  std::array<uint64_t, NumEventKinds> PerKind{};
};

/// Buffers every event verbatim, in emission order, for a caller to
/// inspect after the run.
class CollectorSink : public TraceSink {
public:
  void event(const TraceEvent &E) override { Events.push_back(E); }

  size_t numEvents() const { return Events.size(); }
  const std::vector<TraceEvent> &events() const { return Events; }

private:
  std::vector<TraceEvent> Events;
};

/// Accumulates every event and renders Chrome trace_event JSON. An
/// optional method namer turns method ids into readable names in the
/// event args (the ids are always present regardless).
class ChromeTraceSink : public TraceSink {
public:
  void event(const TraceEvent &E) override { Events.push_back(E); }

  void setMethodNamer(std::function<std::string(uint32_t)> Namer) {
    this->Namer = std::move(Namer);
  }

  size_t numEvents() const { return Events.size(); }
  const std::vector<TraceEvent> &events() const { return Events; }

  /// The complete JSON document. Deterministic: a deterministic run
  /// produces byte-identical output.
  std::string str() const;

private:
  std::vector<TraceEvent> Events;
  std::function<std::string(uint32_t)> Namer;
};

} // namespace cbs::tel

#endif // CBSVM_TELEMETRY_TRACESINK_H
