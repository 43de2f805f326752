//===- bench/ledger/Ledger.h - Shared ledger types --------------*- C++ -*-===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What perf_ledger's driver and its workloads share: the run context
/// (options, tracer, measured units, per-layer counts) and the
/// workload interface.
///
/// A *unit* is one sample behind the latency percentiles (a VM run
/// slice, a whole short VM run, or one fuzz program's oracle checks)
/// and also the grain at which virtual-time results are pinned: each
/// unit carries a digest of what the VM computed (cycles, output hash,
/// profile hash, AOS installs, fuzz outcomes), which must not move when
/// only host performance changes.
///
//===----------------------------------------------------------------------===//

#ifndef CBSVM_BENCH_LEDGER_LEDGER_H
#define CBSVM_BENCH_LEDGER_LEDGER_H

#include "Tracer.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace ledger {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  /// Work multiplier of each round: 1 at --seconds 15, 1/50 with --smoke.
  double Scale = 1.0;
};

struct UnitResult {
  std::string Id;
  uint64_t Ns = 0;
  /// Space-separated virtual-time facts ("c=... o=..."); pinned by hash.
  std::string Digest;
  /// Empty when the unit succeeded; else the trap, verifier rejection,
  /// oracle violation or digest mismatch that failed it.
  std::string Failure;
};

class Run {
public:
  Run(const Options &Opt, Tracer &T) : Opt(Opt), T(T) {}

  const Options &Opt;
  Tracer &T;
  std::vector<UnitResult> Units;
  /// Per-layer counts and derived per-layer values, keyed by metric
  /// name ("vm.cycles", "aos.installs", ...), summed over the run.
  std::map<std::string, double> Counts;

  /// Measures \p Body as the next unit; Body fills the digest and any
  /// failure of the UnitResult it receives.
  template <typename Fn> void unit(std::string Id, Fn &&Body) {
    UnitResult U;
    U.Id = std::move(Id);
    T.setUnit(Units.size());
    uint64_t Start = nowNs();
    {
      Scope S(T, LedgerUnit);
      Body(U);
    }
    U.Ns = nowNs() - Start;
    T.setUnit(Tracer::NoUnit);
    Units.push_back(std::move(U));
  }

  /// \p N scaled by Opt.Scale, at least 1.
  unsigned scaled(unsigned N) const {
    return static_cast<unsigned>(
        std::max(1.0, std::round(static_cast<double>(N) * Opt.Scale)));
  }
};

/// setup() runs several times (each call replaces the previous state;
/// the last one is measured and kept); run() then executes every unit.
class Workload {
public:
  virtual ~Workload() = default;
  virtual void setup(Run &R) = 0;
  virtual void run(Run &R) = 0;
};

/// The workload called \p Name, or null.
std::unique_ptr<Workload> makeWorkload(const std::string &Name);
/// Every workload name, in BENCHMARK.json order.
const std::vector<std::string> &workloadNames();

inline constexpr uint64_t FnvOffset = 0xcbf29ce484222325ull;
inline constexpr uint64_t FnvPrime = 0x100000001b3ull;

/// FNV-1a over \p Bytes, continuing from \p H.
inline uint64_t fnv1a(const std::string &Bytes, uint64_t H = FnvOffset) {
  for (unsigned char C : Bytes) {
    H ^= C;
    H *= FnvPrime;
  }
  return H;
}

std::string hex64(uint64_t V);

} // namespace ledger

#endif // CBSVM_BENCH_LEDGER_LEDGER_H
