//===- telemetry/MetricRegistry.cpp - Named metrics --------------------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//

#include "telemetry/MetricRegistry.h"

#include "support/Json.h"

#include <cassert>

using namespace cbs;
using namespace cbs::tel;

Counter &MetricRegistry::counter(const std::string &Name) {
  assert(!Gauges.count(Name) && !Histograms.count(Name) &&
         "metric name registered with a different type");
  return Counters[Name];
}

Gauge &MetricRegistry::gauge(const std::string &Name) {
  assert(!Counters.count(Name) && !Histograms.count(Name) &&
         "metric name registered with a different type");
  return Gauges[Name];
}

Histogram &MetricRegistry::histogram(const std::string &Name) {
  assert(!Counters.count(Name) && !Gauges.count(Name) &&
         "metric name registered with a different type");
  return Histograms[Name];
}

void MetricRegistry::merge(const MetricRegistry &Other) {
  for (const auto &[Name, C] : Other.Counters)
    counter(Name) += C.Value;
  for (const auto &[Name, G] : Other.Gauges)
    gauge(Name) = G.Value;
  for (const auto &[Name, H] : Other.Histograms)
    histogram(Name).merge(H);
}

const Counter *MetricRegistry::findCounter(const std::string &Name) const {
  auto It = Counters.find(Name);
  return It == Counters.end() ? nullptr : &It->second;
}

const Gauge *MetricRegistry::findGauge(const std::string &Name) const {
  auto It = Gauges.find(Name);
  return It == Gauges.end() ? nullptr : &It->second;
}

const Histogram *MetricRegistry::findHistogram(const std::string &Name) const {
  auto It = Histograms.find(Name);
  return It == Histograms.end() ? nullptr : &It->second;
}

void MetricRegistry::writeJson(json::JsonWriter &W) const {
  W.beginObject();

  W.key("counters");
  W.beginObject();
  for (const auto &[Name, C] : Counters) {
    W.key(Name);
    W.value(C.Value);
  }
  W.endObject();

  W.key("gauges");
  W.beginObject();
  for (const auto &[Name, G] : Gauges) {
    W.key(Name);
    W.value(G.Value);
  }
  W.endObject();

  W.key("histograms");
  W.beginObject();
  for (const auto &[Name, H] : Histograms) {
    W.key(Name);
    W.beginObject();
    W.key("count");
    W.value(H.count());
    W.key("sum");
    W.value(H.sum());
    W.key("min");
    W.value(H.min());
    W.key("max");
    W.value(H.max());
    // An empty histogram has no quantiles (quantile() returns NaN,
    // which JSON cannot represent): omit the keys instead of
    // fabricating a 0.
    if (H.count() != 0) {
      W.key("p50");
      W.value(H.quantile(0.50));
      W.key("p90");
      W.value(H.quantile(0.90));
      W.key("p99");
      W.value(H.quantile(0.99));
    }
    W.key("buckets");
    W.beginArray();
    for (size_t I = 0; I != Histogram::NumBuckets; ++I) {
      if (H.bucketCount(I) == 0)
        continue;
      W.beginObject();
      W.key("lo");
      W.value(Histogram::bucketLow(I));
      W.key("count");
      W.value(H.bucketCount(I));
      W.endObject();
    }
    W.endArray();
    W.endObject();
  }
  W.endObject();

  W.endObject();
}

std::string MetricRegistry::toJson() const {
  json::JsonWriter W;
  writeJson(W);
  return W.take();
}
