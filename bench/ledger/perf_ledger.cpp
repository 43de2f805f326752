//===- bench/ledger/perf_ledger.cpp - Host-time performance ledger ---------===//
//
// Part of the CBSVM project.
//
// Runs one workload in this process and prints every metric by name
// with its unit:
//
//   perf_ledger --workload NAME --seed S [--seconds N] [--smoke]
//               [--trace FILE] [--json FILE] [--write-expected]
//
// The workload's fixed work runs in three rounds, each on a fresh
// workload, and every timing is the minimum over the rounds. Noise from
// other tenants of a shared host only ever adds time and comes in bursts
// of seconds, so the best of three rounds a few seconds apart is a much
// steadier estimate than one round three times as long.
//
// End-to-end metrics (wall_s, unit_p50_ms, unit_p95_ms, setup_s,
// peak_rss_mb, fail_rate) come from every run. --trace traces the last
// round: it keeps that round's spans in memory, writes them to FILE as
// Chrome trace_event JSON, and adds the per-layer metrics of that round,
// including the tracing overhead against the untraced rounds. Measure
// end-to-end numbers without it.
//
// Correctness: every round must reproduce the first round's unit
// digests, which must match the ones pinned in expected.json for this
// (workload, scale, seed) when present. A digest mismatch, trap,
// verifier rejection or oracle violation fails the unit, and any failed
// unit makes the exit status 1. --write-expected pins this run's digests
// instead.
//
//===----------------------------------------------------------------------===//

#include "Ledger.h"

#include "fuzz/Oracle.h"
#include "support/ArgParser.h"
#include "support/Json.h"
#include "support/Statistics.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <sys/resource.h>

using namespace cbs;
using namespace ledger;

namespace {

constexpr unsigned Rounds = 3;
/// In each round set-up repeats at least MinSetups times and until it
/// has taken SetupBudgetNs (at most MaxSetups times); the round's set-up
/// time is the median, which keeps even a microsecond set-up steady.
/// The last repetition is the one the round keeps and measures.
constexpr unsigned MinSetups = 3, MaxSetups = 100'000;
constexpr uint64_t SetupBudgetNs = 200'000'000;
/// --seconds at which the work multiplier is 1.
constexpr double DefaultSeconds = 15;
/// Work multiplier of --smoke (≈50x less than the default).
constexpr double SmokeScale = 0.02;

/// What one round measured.
struct RoundResult {
  std::vector<UnitResult> Units;
  double SetupNs = 0;  ///< median set-up repetition
  uint64_t WallNs = 0; ///< the kept set-up plus every unit
  std::map<std::string, double> Counts;
};

/// Runs one round of \p Opt's workload; traces its kept set-up and its
/// units when \p Traced.
RoundResult runRound(const Options &Opt, Tracer &T, bool Traced) {
  std::unique_ptr<Workload> W = makeWorkload(Opt.Workload);
  Run R(Opt, T);
  std::vector<double> SetupNs;
  uint64_t SetupTotalNs = 0, WallStart = 0;
  for (bool Last = false; !Last;) {
    Last = SetupNs.size() + 1 >= MinSetups &&
           (SetupTotalNs >= SetupBudgetNs || SetupNs.size() + 1 >= MaxSetups);
    if (Last && Traced)
      T.enable();
    R.Counts.clear();
    WallStart = nowNs();
    {
      Scope S(T, LedgerSetup);
      W->setup(R);
    }
    uint64_t Ns = nowNs() - WallStart;
    SetupTotalNs += Ns;
    SetupNs.push_back(static_cast<double>(Ns));
  }
  W->run(R);
  uint64_t WallNs = nowNs() - WallStart;
  return {std::move(R.Units), median(SetupNs), WallNs, std::move(R.Counts)};
}

/// Folds the rounds into one unit list: each unit's latency is its
/// minimum over the rounds, and a unit fails if it failed in any round
/// or a later round computed a different digest.
std::vector<UnitResult> combine(const std::vector<RoundResult> &Results) {
  std::vector<UnitResult> Units = Results.front().Units;
  for (size_t R = 1; R != Results.size(); ++R) {
    const std::vector<UnitResult> &Other = Results[R].Units;
    for (size_t I = 0; I != Units.size(); ++I) {
      UnitResult &U = Units[I];
      if (I >= Other.size()) {
        U.Failure = "missing from round " + std::to_string(R + 1);
        continue;
      }
      U.Ns = std::min(U.Ns, Other[I].Ns);
      if (U.Failure.empty() && !Other[I].Failure.empty())
        U.Failure = Other[I].Failure;
      if (U.Failure.empty() && Other[I].Digest != U.Digest)
        U.Failure = "round " + std::to_string(R + 1) + " computed " +
                    Other[I].Digest + ", round 1 " + U.Digest;
    }
  }
  return Units;
}

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

/// Per-layer self times and the span each is taken from.
constexpr std::pair<const char *, const char *> SelfTimeMetrics[] = {
    {"workloads.build_ms", "workloads.build"},
    {"bytecode.verify_ms", "bytecode.verify"},
    {"vm.construct_ms", "vm.construct"},
    {"opt.jit_compile_ms", "opt.jit_compile"},
    {"vm.run_self_ms", "vm.run"},
    {"profiling.snapshot_ms", "profiling.snapshot"},
    {"profiling.overlap_ms", "profiling.overlap"},
    {"opt.plan_ms", "opt.plan"},
    {"aos.tick_self_ms", "aos.tick"},
    {"aos.yieldpoint_ms", "aos.yieldpoint"},
    {"aos.startup_ms", "aos.startup"},
    {"profiling.codec_encode_ms", "profiling.codec_encode"},
    {"profiling.codec_decode_ms", "profiling.codec_decode"},
    {"profiling.repo_commit_ms", "profiling.repo_commit"},
    {"profiling.repo_load_ms", "profiling.repo_load"},
    {"aos.report_build_ms", "aos.report_build"},
    {"support.json_parse_ms", "support.json_parse"},
    {"fuzz.driver_self_ms", "fuzz.campaign"},
};

/// Per-layer counts the workloads accumulate in Run::Counts.
constexpr const char *CountMetrics[] = {
    "opt.jit_compiles",    "vm.cycles",          "vm.instructions",
    "vm.calls_executed",   "vm.timer_ticks",     "vm.yieldpoints_taken",
    "vm.thread_switches",  "vm.gc_count",        "vm.samples_taken",
    "dcg.flushes",         "dcg.dropped_samples", "opt.plans",
    "aos.enqueued",        "aos.installs",       "aos.stale_drops",
    "vm.deopts",           "vm.osr_entries",     "fuzz.programs",
    "fuzz.oracle_checks",  "fuzz.violations"};

std::vector<Metric> endToEnd(const std::vector<RoundResult> &Results,
                             const std::vector<UnitResult> &Units,
                             size_t Failed) {
  std::vector<double> UnitMs;
  for (const UnitResult &U : Units)
    UnitMs.push_back(static_cast<double>(U.Ns) / 1e6);
  uint64_t WallNs = UINT64_MAX;
  double SetupNs = INFINITY;
  for (const RoundResult &R : Results) {
    WallNs = std::min(WallNs, R.WallNs);
    SetupNs = std::min(SetupNs, R.SetupNs);
  }
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  return {
      {"wall_s", static_cast<double>(WallNs) / 1e9, "s"},
      {"unit_p50_ms", percentile(UnitMs, 50), "ms"},
      {"unit_p95_ms", percentile(UnitMs, 95), "ms"},
      {"setup_s", SetupNs / 1e9, "s"},
      {"peak_rss_mb", static_cast<double>(Usage.ru_maxrss) / 1024.0, "MB"},
      {"fail_rate",
       static_cast<double>(Failed) / static_cast<double>(Units.size()),
       "ratio"},
  };
}

/// The per-layer metrics of the last round, which \p T traced.
std::vector<Metric> perLayer(const Tracer &T,
                             const std::vector<RoundResult> &Results) {
  const RoundResult &Traced = Results.back();
  uint64_t UntracedNs = UINT64_MAX;
  for (size_t R = 0; R + 1 < Results.size(); ++R)
    UntracedNs = std::min(UntracedNs, Results[R].WallNs);
  auto count = [&](const std::string &Name) {
    auto It = Traced.Counts.find(Name);
    return It == Traced.Counts.end() ? 0.0 : It->second;
  };
  std::map<std::string, uint64_t> Self = T.selfNsByName();
  auto SelfMs = [&](const std::string &Span) {
    auto It = Self.find(Span);
    return It == Self.end() ? 0.0 : static_cast<double>(It->second) / 1e6;
  };
  std::vector<Metric> Out;
  for (const auto &[Name, Span] : SelfTimeMetrics)
    Out.push_back({Name, SelfMs(Span), "ms"});
  fuzz::OracleRegistry Oracles = fuzz::OracleRegistry::builtin();
  for (const std::unique_ptr<fuzz::Oracle> &O : Oracles.all()) {
    std::string Span = std::string("fuzz.oracle.") + O->id();
    Out.push_back({Span + "_ms", SelfMs(Span), "ms"});
  }
  for (const char *Name : CountMetrics)
    Out.push_back({Name, count(Name), "count"});

  double Kcycles = count("vm.cycles") / 1e3;
  Out.push_back({"vm.self_ns_per_kcycle",
                 Kcycles == 0 ? 0.0 : SelfMs("vm.run") * 1e6 / Kcycles,
                 "ns/kcycle"});
  double Enqueued = count("aos.enqueued");
  Out.push_back({"aos.install_ratio",
                 Enqueued == 0 ? 0.0 : count("aos.installs") / Enqueued,
                 "ratio"});
  Out.push_back({"profiling.sampling_host_cost_pct",
                 count("profiling.sampling_host_cost_pct"), "%"});
  Out.push_back({"profiling.exhaustive_host_cost_pct",
                 count("profiling.exhaustive_host_cost_pct"), "%"});
  Out.push_back({"trace.unattributed_pct",
                 100.0 * static_cast<double>(Traced.WallNs - T.topLevelNs()) /
                     static_cast<double>(Traced.WallNs),
                 "%"});
  Out.push_back({"trace.overhead_pct",
                 100.0 * (static_cast<double>(Traced.WallNs) /
                              static_cast<double>(UntracedNs) -
                          1.0),
                 "%"});
  return Out;
}

/// The pinned form of a unit digest: FNV-1a folded to 32 bits.
std::string pin(const std::string &Digest) {
  uint64_t H = fnv1a(Digest);
  return hex64((H ^ (H >> 32)) & 0xffffffffu).substr(8);
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// expected.json: {"digests": {"<workload>/<tag>/<seed>": ["hex", ...]}}.
std::map<std::string, std::vector<std::string>>
loadExpected(const std::string &Path) {
  std::map<std::string, std::vector<std::string>> Pins;
  std::string Text = readFile(Path);
  if (Text.empty())
    return Pins;
  json::JsonParseResult Doc = json::parseJson(Text);
  const json::JsonValue *Digests = Doc.ok() ? Doc.Value->find("digests") : nullptr;
  if (!Digests || !Digests->isObject()) {
    std::fprintf(stderr, "perf_ledger: %s is not a digest file\n",
                 Path.c_str());
    std::exit(2);
  }
  for (const auto &[Key, List] : Digests->Members)
    for (const json::JsonValue &V : List.Elements)
      Pins[Key].push_back(V.Str);
  return Pins;
}

/// One key per line, so a re-pin shows as a one-line diff per
/// (workload, scale, seed).
bool writeExpected(const std::string &Path,
                   const std::map<std::string, std::vector<std::string>> &Pins) {
  std::ofstream Out(Path);
  Out << "{\n  \"digests\": {";
  const char *Sep = "\n";
  for (const auto &[Key, List] : Pins) {
    Out << Sep << "    \"" << json::escape(Key) << "\": [";
    for (size_t I = 0; I != List.size(); ++I)
      Out << (I ? "," : "") << '"' << List[I] << '"';
    Out << ']';
    Sep = ",\n";
  }
  Out << "\n  }\n}\n";
  return Out.good();
}

/// Fails every unit whose digest differs from \p Expected.
void checkDigests(std::vector<UnitResult> &Units,
                  const std::vector<std::string> &Expected) {
  for (size_t I = 0; I != Units.size(); ++I) {
    UnitResult &U = Units[I];
    std::string Got = pin(U.Digest);
    if (I >= Expected.size() || Expected[I] != Got) {
      if (U.Failure.empty())
        U.Failure = "digest " + Got + " (" + U.Digest + ") != pinned " +
                    (I < Expected.size() ? Expected[I] : "<none>");
    }
  }
  if (Expected.size() > Units.size() && Units.back().Failure.empty())
    Units.back().Failure = "ran " + std::to_string(Units.size()) +
                           " units, pinned " + std::to_string(Expected.size());
}

void printMetrics(const char *Title, const std::vector<Metric> &Metrics) {
  std::printf("\n%s\n", Title);
  for (const Metric &M : Metrics)
    std::printf("  %-40s %16.6f  %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
}

void writeMetrics(json::JsonWriter &W, const std::vector<Metric> &Metrics) {
  for (const Metric &M : Metrics) {
    W.key(M.Name);
    W.beginObject();
    W.key("value");
    W.value(M.Value);
    W.key("unit");
    W.value(M.Unit);
    W.endObject();
  }
}

} // namespace

int main(int Argc, char **Argv) {
  support::ArgParser Args(Argc, Argv);
  Options Opt;
  Opt.Workload = Args.option("--workload", "");
  Opt.Seed = Args.optionUInt("--seed", 1, 1, UINT32_MAX);
  uint64_t Seconds = Args.optionUInt("--seconds", 15, 1, 3600);
  bool Smoke = Args.flag("--smoke");
  std::string TracePath = Args.option("--trace", "");
  std::string JsonPath = Args.option("--json", "");
  bool WriteExpected = Args.flag("--write-expected");
  Args.finish();

  if (!makeWorkload(Opt.Workload)) {
    std::string Known;
    for (const std::string &N : workloadNames())
      Known += " " + N;
    std::fprintf(stderr, "perf_ledger: --workload must be one of:%s\n",
                 Known.c_str());
    return 2;
  }
  Opt.Scale = Smoke ? SmokeScale : static_cast<double>(Seconds) / DefaultSeconds;
  std::string Tag = Smoke ? "smoke" : "s" + std::to_string(Seconds);
  std::string Key = Opt.Workload + "/" + Tag + "/" + std::to_string(Opt.Seed);

  Tracer T;
  std::vector<RoundResult> Results;
  for (unsigned I = 0; I != Rounds; ++I)
    Results.push_back(
        runRound(Opt, T, I + 1 == Rounds && !TracePath.empty()));
  std::vector<UnitResult> Units = combine(Results);

  std::map<std::string, std::vector<std::string>> Pins =
      loadExpected(LEDGER_EXPECTED_FILE);
  const char *DigestStatus = "unpinned";
  if (WriteExpected) {
    std::vector<std::string> &List = Pins[Key];
    List.clear();
    for (const UnitResult &U : Units)
      List.push_back(pin(U.Digest));
    if (!writeExpected(LEDGER_EXPECTED_FILE, Pins)) {
      std::fprintf(stderr, "perf_ledger: cannot write %s\n",
                   LEDGER_EXPECTED_FILE);
      return 2;
    }
    DigestStatus = "written";
  } else if (auto It = Pins.find(Key); It != Pins.end()) {
    checkDigests(Units, It->second);
    DigestStatus = "checked";
  }

  size_t Failed = 0;
  for (const UnitResult &U : Units)
    if (!U.Failure.empty() && Failed++ < 10)
      std::fprintf(stderr, "perf_ledger: unit %s failed: %s\n", U.Id.c_str(),
                   U.Failure.c_str());

  std::vector<Metric> E2E = endToEnd(Results, Units, Failed);
  std::vector<Metric> Layers;
  if (T.on())
    Layers = perLayer(T, Results);

  std::printf("perf_ledger: %s seed %llu (%s): %zu units, %zu failed, "
              "digests %s\n",
              Opt.Workload.c_str(), static_cast<unsigned long long>(Opt.Seed),
              Tag.c_str(), Units.size(), Failed, DigestStatus);
  std::printf("round wall times (s):");
  for (const RoundResult &R : Results)
    std::printf(" %.6f", static_cast<double>(R.WallNs) / 1e9);
  std::printf("\n");
  printMetrics("end-to-end", E2E);
  if (T.on()) {
    printMetrics("per-layer", Layers);
    std::printf("\nself time by span\n");
    for (const auto &[Name, Ns] : T.selfNsByName())
      std::printf("  %-40s %16.6f  ms\n", Name.c_str(),
                  static_cast<double>(Ns) / 1e6);
    std::ofstream Trace(TracePath);
    Trace << T.chromeJson();
    if (!Trace.good()) {
      std::fprintf(stderr, "perf_ledger: cannot write %s\n",
                   TracePath.c_str());
      return 2;
    }
  }

  if (!JsonPath.empty()) {
    json::JsonWriter J;
    J.beginObject();
    J.key("workload");
    J.value(Opt.Workload);
    J.key("seed");
    J.value(Opt.Seed);
    J.key("tag");
    J.value(Tag);
    J.key("traced");
    J.value(T.on());
    J.key("attempted");
    J.value(static_cast<uint64_t>(Units.size()));
    J.key("failed");
    J.value(static_cast<uint64_t>(Failed));
    J.key("digest_status");
    J.value(DigestStatus);
    J.key("digests");
    J.beginArray();
    for (const UnitResult &U : Units)
      J.value(pin(U.Digest));
    J.endArray();
    J.key("metrics");
    J.beginObject();
    writeMetrics(J, E2E);
    writeMetrics(J, Layers);
    J.endObject();
    J.endObject();
    std::ofstream Out(JsonPath);
    Out << J.take() << '\n';
    if (!Out.good()) {
      std::fprintf(stderr, "perf_ledger: cannot write %s\n", JsonPath.c_str());
      return 2;
    }
  }
  return Failed == 0 ? 0 : 1;
}
