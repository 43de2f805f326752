//===- telemetry/MetricRegistry.h - Named metrics ----------------*- C++ -*-===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The VM-wide metrics registry: components register Counters, Gauges,
/// and Histograms by dotted name (dcg.quality.windows,
/// vm.sample_stack_depth) and update them through plain references.
/// The registry owns that storage (std::map nodes are address-stable),
/// enumerates metrics in sorted-name order for deterministic output, and
/// renders itself as text or JSON.
///
/// For the VM's counters and the adaptive system's statistics the
/// registry is a view, not the storage: they live in plain struct fields
/// (vm::VMStats, aos::AOSStats), and VirtualMachine::metrics() and the
/// adaptive system write them in under their names.
///
//===----------------------------------------------------------------------===//

#ifndef CBSVM_TELEMETRY_METRICREGISTRY_H
#define CBSVM_TELEMETRY_METRICREGISTRY_H

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <string>

namespace cbs::json {
class JsonWriter;
}

namespace cbs::tel {

/// A monotonically increasing count. Implicitly converts to uint64_t so
/// registered counters can replace raw struct fields in expressions.
struct Counter {
  uint64_t Value = 0;

  Counter &operator++() {
    ++Value;
    return *this;
  }
  Counter &operator+=(uint64_t N) {
    Value += N;
    return *this;
  }
  operator uint64_t() const { return Value; }
};

/// A point-in-time value (settable, not monotonic).
struct Gauge {
  uint64_t Value = 0;

  Gauge &operator=(uint64_t V) {
    Value = V;
    return *this;
  }
  void accumulateMax(uint64_t V) { Value = std::max(Value, V); }
  operator uint64_t() const { return Value; }
};

/// A histogram over uint64 values with fixed log2 buckets: bucket 0
/// holds the value 0 and bucket k (k >= 1) holds values in
/// [2^(k-1), 2^k). Also tracks count/sum/min/max.
class Histogram {
public:
  /// Bucket 0 plus one bucket per possible bit width.
  static constexpr size_t NumBuckets = 65;

  /// Bucket index of \p V: 0 for 0, else 1 + floor(log2(V)).
  static size_t bucketIndex(uint64_t V) {
    return static_cast<size_t>(std::bit_width(V));
  }
  /// Smallest value falling into bucket \p I.
  static uint64_t bucketLow(size_t I) {
    return I == 0 ? 0 : uint64_t(1) << (I - 1);
  }

  void record(uint64_t V) {
    ++Buckets[bucketIndex(V)];
    ++NumSamples;
    Sum += V;
    Min = std::min(Min, V);
    Max = std::max(Max, V);
  }

  /// Pointwise accumulation of \p Other: buckets, count, and sum add;
  /// min/max combine. Equivalent to replaying Other's samples here.
  void merge(const Histogram &Other) {
    for (size_t I = 0; I != NumBuckets; ++I)
      Buckets[I] += Other.Buckets[I];
    NumSamples += Other.NumSamples;
    Sum += Other.Sum;
    Min = std::min(Min, Other.Min);
    Max = std::max(Max, Other.Max);
  }

  uint64_t count() const { return NumSamples; }
  uint64_t sum() const { return Sum; }
  /// Minimum recorded value; 0 when empty.
  uint64_t min() const { return NumSamples == 0 ? 0 : Min; }
  uint64_t max() const { return Max; }
  uint64_t bucketCount(size_t I) const { return Buckets[I]; }

  /// Approximate \p Q-quantile (Q in [0, 1]) reconstructed from the
  /// log2 buckets: the continuous rank Q*count is located in its
  /// bucket, the value is linearly interpolated between the bucket's
  /// bounds [lo, 2*lo), and the result is clamped to the exact
  /// recorded [min, max] (so single-valued and edge quantiles are
  /// exact). An empty histogram has no quantiles: NaN, which JSON
  /// rendering translates to omitting the keys — a fabricated 0 would
  /// be indistinguishable from a real all-zero distribution.
  double quantile(double Q) const {
    if (NumSamples == 0)
      return std::numeric_limits<double>::quiet_NaN();
    double Target = Q * static_cast<double>(NumSamples);
    if (Target < 1.0)
      Target = 1.0; // rank of the first sample
    uint64_t Before = 0;
    for (size_t I = 0; I != NumBuckets; ++I) {
      if (Buckets[I] == 0)
        continue;
      double InBucket = static_cast<double>(Buckets[I]);
      if (static_cast<double>(Before) + InBucket >= Target) {
        double Lo = static_cast<double>(bucketLow(I));
        double Hi = I == 0 ? 1.0 : Lo * 2.0; // exclusive upper bound
        double Frac = (Target - static_cast<double>(Before)) / InBucket;
        double V = Lo + (Hi - Lo) * Frac;
        return std::min(std::max(V, static_cast<double>(min())),
                        static_cast<double>(Max));
      }
      Before += Buckets[I];
    }
    return static_cast<double>(Max);
  }

private:
  std::array<uint64_t, NumBuckets> Buckets{};
  uint64_t NumSamples = 0;
  uint64_t Sum = 0;
  uint64_t Min = UINT64_MAX;
  uint64_t Max = 0;
};

/// Owns every metric. counter()/gauge()/histogram() create on first use
/// and always return the same address for the same name afterwards, so
/// components can cache references at construction time and update them
/// without lookups. A name must not be reused across metric types.
///
/// Thread-ownership contract: a registry is single-threaded state. The
/// parallel experiment engine gives every task its own registry and
/// merges them into the parent *after* the worker barrier, on the
/// owning thread, in grid-index order (see experiments/ParallelRunner.h)
/// — there is no locked shared registry on any hot path.
class MetricRegistry {
public:
  Counter &counter(const std::string &Name);
  Gauge &gauge(const std::string &Name);
  Histogram &histogram(const std::string &Name);

  /// Folds \p Other into this registry as if Other's updates had been
  /// replayed here after our own: counters and histograms accumulate;
  /// gauges take Other's value (last write wins — merge order is the
  /// caller's serial order, so this matches a shared serial registry).
  /// A name present in both registries must have the same metric type.
  void merge(const MetricRegistry &Other);

  /// Lookup without creation (nullptr when absent).
  const Counter *findCounter(const std::string &Name) const;
  const Gauge *findGauge(const std::string &Name) const;
  const Histogram *findHistogram(const std::string &Name) const;

  size_t size() const {
    return Counters.size() + Gauges.size() + Histograms.size();
  }

  /// JSON object {"counters": {...}, "gauges": {...}, "histograms":
  /// {...}}; names in sorted order, histogram buckets restricted to
  /// non-empty ones. Deterministic for a deterministic run.
  void writeJson(json::JsonWriter &W) const;
  std::string toJson() const;

private:
  std::map<std::string, Counter> Counters;
  std::map<std::string, Gauge> Gauges;
  std::map<std::string, Histogram> Histograms;
};

} // namespace cbs::tel

#endif // CBSVM_TELEMETRY_METRICREGISTRY_H
