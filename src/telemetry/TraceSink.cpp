//===- telemetry/TraceSink.cpp - Trace event consumers -----------------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//

#include "telemetry/TraceSink.h"

#include "support/Json.h"

using namespace cbs;
using namespace cbs::tel;

const char *tel::eventKindName(EventKind K) {
  switch (K) {
  case EventKind::TimerTick:
    return "timer_tick";
  case EventKind::WindowArm:
    return "window_arm";
  case EventKind::WindowDisarm:
    return "window_disarm";
  case EventKind::Sample:
    return "sample";
  case EventKind::CompileStart:
    return "compile_start";
  case EventKind::CompileFinish:
    return "compile_finish";
  case EventKind::InlineDecision:
    return "inline_decision";
  case EventKind::GC:
    return "gc";
  case EventKind::ThreadSwitch:
    return "thread_switch";
  case EventKind::PhaseShift:
    return "phase_shift";
  case EventKind::SampleDrop:
    return "sample_drop";
  case EventKind::Trap:
    return "trap";
  case EventKind::CompileEnqueue:
    return "compile_enqueue";
  case EventKind::CompileInstall:
    return "compile_install";
  case EventKind::GuardFail:
    return "guard_fail";
  case EventKind::Deopt:
    return "deopt";
  case EventKind::Osr:
    return "osr";
  }
  return "?";
}

TraceSink::~TraceSink() = default;

RingBufferSink::RingBufferSink(size_t Capacity) : Capacity(Capacity) {
  Ring.reserve(Capacity);
}

void RingBufferSink::event(const TraceEvent &E) {
  ++PerKind[static_cast<size_t>(E.Kind)];
  if (Ring.size() < Capacity)
    Ring.push_back(E);
  else
    Ring[Total % Capacity] = E;
  ++Total;
}

std::vector<TraceEvent> RingBufferSink::snapshot() const {
  if (Total <= Capacity)
    return Ring;
  std::vector<TraceEvent> Out;
  Out.reserve(Capacity);
  size_t Oldest = Total % Capacity;
  for (size_t I = 0; I != Capacity; ++I)
    Out.push_back(Ring[(Oldest + I) % Capacity]);
  return Out;
}

namespace {

void writeArgs(json::JsonWriter &W, const TraceEvent &E,
               const std::function<std::string(uint32_t)> &Namer) {
  auto Method = [&](const char *Key, const char *NameKey, uint32_t Id) {
    W.key(Key);
    W.value(static_cast<uint64_t>(Id));
    if (Namer && Id != UINT32_MAX) {
      W.key(NameKey);
      W.value(Namer(Id));
    }
  };
  switch (E.Kind) {
  case EventKind::TimerTick:
    Method("method", "method_name", E.A);
    break;
  case EventKind::WindowArm:
    W.key("samples_per_tick");
    W.value(static_cast<uint64_t>(E.A));
    break;
  case EventKind::WindowDisarm:
    break;
  case EventKind::Sample:
    W.key("site");
    W.value(static_cast<uint64_t>(E.B));
    Method("callee", "callee_name", E.A);
    break;
  case EventKind::CompileStart:
  case EventKind::CompileFinish:
    Method("method", "method_name", E.A);
    W.key("level");
    W.value(static_cast<uint64_t>(E.B));
    if (E.Kind == EventKind::CompileFinish) {
      W.key("cost_cycles");
      W.value(E.C);
    }
    break;
  case EventKind::InlineDecision:
    W.key("site");
    W.value(static_cast<uint64_t>(E.B));
    Method("target", "target_name", E.A);
    W.key("decision");
    W.value(E.C == 1 ? "direct" : "guarded");
    break;
  case EventKind::GC:
    W.key("heap_bytes");
    W.value(E.C);
    break;
  case EventKind::ThreadSwitch:
    W.key("to_thread");
    W.value(static_cast<uint64_t>(E.A));
    break;
  case EventKind::PhaseShift:
    W.key("overlap_bp");
    W.value(static_cast<uint64_t>(E.A));
    W.key("window");
    W.value(static_cast<uint64_t>(E.B));
    break;
  case EventKind::SampleDrop:
    W.key("capacity");
    W.value(static_cast<uint64_t>(E.A));
    W.key("dropped");
    W.value(E.C);
    break;
  case EventKind::Trap:
    Method("method", "method_name", E.A);
    W.key("pc");
    W.value(static_cast<uint64_t>(E.B));
    break;
  case EventKind::CompileEnqueue:
    Method("method", "method_name", E.A);
    W.key("level");
    W.value(static_cast<uint64_t>(E.B));
    W.key("ready_cycle");
    W.value(E.C);
    break;
  case EventKind::CompileInstall:
    Method("method", "method_name", E.A);
    W.key("level");
    W.value(static_cast<uint64_t>(E.B));
    W.key("waited_cycles");
    W.value(E.C);
    break;
  case EventKind::GuardFail:
    Method("method", "method_name", E.A);
    W.key("site");
    W.value(static_cast<uint64_t>(E.B));
    Method("assumed_callee", "assumed_callee_name",
           static_cast<uint32_t>(E.C));
    break;
  case EventKind::Deopt:
    Method("method", "method_name", E.A);
    W.key("level");
    W.value(static_cast<uint64_t>(E.B));
    W.key("deopt_count");
    W.value(E.C);
    break;
  case EventKind::Osr:
    Method("method", "method_name", E.A);
    W.key("to_level");
    W.value(static_cast<uint64_t>(E.B));
    W.key("direction");
    W.value(E.C == 1 ? "promotion" : "deopt_exit");
    break;
  }
}

} // namespace

std::string ChromeTraceSink::str() const {
  json::JsonWriter W;
  W.beginObject();
  W.key("displayTimeUnit");
  W.value("ns");
  W.key("traceEvents");
  W.beginArray();
  for (const TraceEvent &E : Events) {
    W.beginObject();
    W.key("name");
    W.value(eventKindName(E.Kind));
    W.key("cat");
    W.value("cbsvm");
    W.key("ph");
    // Compile start/finish form a duration pair; everything else is an
    // instant event (thread-scoped).
    if (E.Kind == EventKind::CompileStart)
      W.value("B");
    else if (E.Kind == EventKind::CompileFinish)
      W.value("E");
    else {
      W.value("i");
      W.key("s");
      W.value("t");
    }
    W.key("ts");
    W.value(E.Cycles);
    W.key("pid");
    W.value(uint64_t(1));
    W.key("tid");
    W.value(static_cast<uint64_t>(E.Thread));
    W.key("args");
    W.beginObject();
    writeArgs(W, E, Namer);
    W.endObject();
    W.endObject();
  }
  W.endArray();
  W.endObject();
  return W.take();
}
