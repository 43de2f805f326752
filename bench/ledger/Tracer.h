//===- bench/ledger/Tracer.h - In-memory host-time spans --------*- C++ -*-===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ledger's span recorder. Spans are taken from outside the
/// libraries, around public calls and inside the forwarding wrappers at
/// the extension points, and kept in memory until the run ends. A
/// layer's self time is its spans' total duration minus the part their
/// child spans cover.
///
/// When tracing is off a span site costs one flag test: Scope records
/// nothing and reads no clock. Host timings stay in the ledger; they
/// never reach a VM metrics registry or any output the VM's
/// determinism checks compare.
///
//===----------------------------------------------------------------------===//

#ifndef CBSVM_BENCH_LEDGER_TRACER_H
#define CBSVM_BENCH_LEDGER_TRACER_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ledger {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Span names with a fixed id; fuzz oracles are interned at run time.
/// The strings are the layer names the per-layer metrics are keyed by.
enum Layer : uint32_t {
  LedgerSetup,
  LedgerUnit,
  WorkloadsBuild,
  BytecodeVerify,
  VmConstruct,
  VmRun,
  VmMetrics,
  OptJitCompile,
  OptPlan,
  AosStartup,
  AosTick,
  AosYieldpoint,
  ProfilingSnapshot,
  ProfilingOverlap,
  CodecEncode,
  CodecDecode,
  RepoCommit,
  RepoLoad,
  ReportBuild,
  JsonParse,
  FuzzCampaign,
  NumFixedLayers
};

class Tracer {
public:
  struct Span {
    uint32_t Name;
    uint32_t Parent; ///< index into spans(), or NoParent
    uint64_t Unit;   ///< unit being measured when it opened, or NoUnit
    uint64_t StartNs;
    uint64_t EndNs;
  };
  static constexpr uint32_t NoParent = UINT32_MAX;
  static constexpr uint64_t NoUnit = UINT64_MAX;

  Tracer();

  bool on() const { return On; }
  void enable() { On = true; }

  /// Id for a run-time span name (idempotent).
  uint32_t intern(const std::string &Name);

  /// Unit id stamped on spans opened from now on.
  void setUnit(uint64_t Unit) { CurrentUnit = Unit; }

  uint32_t begin(uint32_t Name);
  void end(uint32_t Index);

  const std::vector<Span> &spans() const { return Spans; }

  /// Self time per span index (duration minus direct children).
  std::vector<uint64_t> selfNs() const;
  /// Self time summed per span name.
  std::map<std::string, uint64_t> selfNsByName() const;
  /// Total duration of the top-level spans (they never overlap: spans
  /// nest on the one measuring thread).
  uint64_t topLevelNs() const;

  /// Chrome trace_event JSON ("X" events, microseconds) with the
  /// per-layer self-time table under "selfTimeMs".
  std::string chromeJson() const;

private:
  bool On = false;
  std::vector<std::string> Names;
  std::vector<Span> Spans;
  uint32_t Open = NoParent;
  uint64_t CurrentUnit = NoUnit;
};

/// RAII span. A disabled tracer makes this a single flag test.
class Scope {
public:
  Scope(Tracer &T, uint32_t Name)
      : T(T), Index(T.on() ? T.begin(Name) : Tracer::NoParent) {}
  ~Scope() {
    if (Index != Tracer::NoParent)
      T.end(Index);
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  Tracer &T;
  uint32_t Index;
};

} // namespace ledger

#endif // CBSVM_BENCH_LEDGER_TRACER_H
