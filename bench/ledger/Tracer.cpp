//===- bench/ledger/Tracer.cpp - In-memory host-time spans ------------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//

#include "Tracer.h"

#include "support/Json.h"

#include <iterator>

using namespace ledger;

namespace {

/// Indexed by Layer.
constexpr const char *FixedLayerNames[] = {
    "ledger.setup",
    "ledger.unit",
    "workloads.build",
    "bytecode.verify",
    "vm.construct",
    "vm.run",
    "vm.metrics",
    "opt.jit_compile",
    "opt.plan",
    "aos.startup",
    "aos.tick",
    "aos.yieldpoint",
    "profiling.snapshot",
    "profiling.overlap",
    "profiling.codec_encode",
    "profiling.codec_decode",
    "profiling.repo_commit",
    "profiling.repo_load",
    "aos.report_build",
    "support.json_parse",
    "fuzz.campaign",
};
static_assert(std::size(FixedLayerNames) == NumFixedLayers,
              "one name per Layer");

} // namespace

Tracer::Tracer()
    : Names(std::begin(FixedLayerNames), std::end(FixedLayerNames)) {}

uint32_t Tracer::intern(const std::string &Name) {
  for (uint32_t I = 0; I != Names.size(); ++I)
    if (Names[I] == Name)
      return I;
  Names.push_back(Name);
  return static_cast<uint32_t>(Names.size() - 1);
}

uint32_t Tracer::begin(uint32_t Name) {
  Spans.push_back({Name, Open, CurrentUnit, nowNs(), 0});
  Open = static_cast<uint32_t>(Spans.size() - 1);
  return Open;
}

void Tracer::end(uint32_t Index) {
  Spans[Index].EndNs = nowNs();
  Open = Spans[Index].Parent;
}

std::vector<uint64_t> Tracer::selfNs() const {
  std::vector<uint64_t> Self(Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I)
    Self[I] = Spans[I].EndNs - Spans[I].StartNs;
  for (const Span &S : Spans)
    if (S.Parent != NoParent)
      Self[S.Parent] -= S.EndNs - S.StartNs;
  return Self;
}

std::map<std::string, uint64_t> Tracer::selfNsByName() const {
  std::map<std::string, uint64_t> ByName;
  std::vector<uint64_t> Self = selfNs();
  for (size_t I = 0; I != Spans.size(); ++I)
    ByName[Names[Spans[I].Name]] += Self[I];
  return ByName;
}

uint64_t Tracer::topLevelNs() const {
  uint64_t Total = 0;
  for (const Span &S : Spans)
    if (S.Parent == NoParent)
      Total += S.EndNs - S.StartNs;
  return Total;
}

std::string Tracer::chromeJson() const {
  uint64_t Origin = Spans.empty() ? 0 : Spans.front().StartNs;
  cbs::json::JsonWriter W;
  W.beginObject();
  W.key("traceEvents");
  W.beginArray();
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    W.beginObject();
    W.key("name");
    W.value(Names[S.Name]);
    W.key("ph");
    W.value("X");
    W.key("pid");
    W.value(1);
    W.key("tid");
    W.value(1);
    W.key("ts");
    W.value(static_cast<double>(S.StartNs - Origin) / 1e3);
    W.key("dur");
    W.value(static_cast<double>(S.EndNs - S.StartNs) / 1e3);
    W.key("args");
    W.beginObject();
    W.key("id");
    W.value(static_cast<uint64_t>(I));
    if (S.Unit != NoUnit) {
      W.key("unit");
      W.value(S.Unit);
    }
    if (S.Parent != NoParent) {
      W.key("parent");
      W.value(static_cast<uint64_t>(S.Parent));
    }
    W.endObject();
    W.endObject();
  }
  W.endArray();
  W.key("displayTimeUnit");
  W.value("ms");
  W.key("selfTimeMs");
  W.beginObject();
  for (const auto &[Name, Ns] : selfNsByName()) {
    W.key(Name);
    W.value(static_cast<double>(Ns) / 1e6);
  }
  W.endObject();
  W.endObject();
  return W.take();
}
