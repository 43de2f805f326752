//===- bench/BenchUtil.h - shared bench helpers ------------------*- C++ -*-===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the table/figure reproduction binaries. Every
/// binary prints the paper artifact it regenerates, the configuration,
/// and a rendered table; CBSVM_RUNS controls the median-of-N repetition
/// count (the paper uses 10; the default here is 3 to keep the full
/// bench sweep interactive).
///
//===----------------------------------------------------------------------===//

#ifndef CBSVM_BENCH_BENCHUTIL_H
#define CBSVM_BENCH_BENCHUTIL_H

#include "experiments/Experiments.h"
#include "experiments/ParallelRunner.h"
#include "profiling/OverlapMetric.h"
#include "support/ArgParser.h"
#include "support/Json.h"
#include "support/TablePrinter.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace cbs::bench {

/// Resolves the worker count for a bench binary: `--jobs N` on the
/// command line wins, then the CBSVM_JOBS environment variable, then
/// hardware concurrency. `--jobs 1` is the serial path; any other value
/// produces byte-identical tables and JSON (see ParallelRunner.h).
inline unsigned jobsFromArgs(support::ArgParser &Args) {
  return exp::resolveJobs(
      static_cast<unsigned>(Args.optionUInt("--jobs", 0, 1, 1024)));
}

/// Seed for bench binaries that accept one; uniform across the suite.
inline uint64_t seedFromArgs(support::ArgParser &Args,
                             uint64_t Default = 1) {
  return Args.optionUInt("--seed", Default, 1, UINT64_MAX);
}

/// Prints the engine's `runner.*` accounting to stderr (stderr so that
/// stdout and `--json` output stay byte-identical across job counts —
/// wall-clock numbers are inherently nondeterministic).
inline void printRunnerSummary(const tel::MetricRegistry &R) {
  const tel::Counter *Tasks = R.findCounter("runner.tasks");
  const tel::Counter *Wall = R.findCounter("runner.wall_us");
  const tel::Counter *Busy = R.findCounter("runner.busy_us");
  const tel::Gauge *Jobs = R.findGauge("runner.jobs");
  const tel::Gauge *Speedup = R.findGauge("runner.speedup_x100");
  if (!Tasks || !Wall || !Busy || !Jobs || !Speedup)
    return;
  std::fprintf(stderr,
               "runner: jobs=%llu tasks=%llu wall=%.2fs busy=%.2fs "
               "speedup=%.2fx\n",
               static_cast<unsigned long long>(Jobs->Value),
               static_cast<unsigned long long>(Tasks->Value),
               static_cast<double>(Wall->Value) / 1e6,
               static_cast<double>(Busy->Value) / 1e6,
               static_cast<double>(Speedup->Value) / 100.0);
}

inline void printHeader(const char *Artifact, const char *Description) {
  std::printf("==============================================================="
              "=\n");
  std::printf("%s — %s\n", Artifact, Description);
  std::printf("Arnold & Grove, \"Collecting and Exploiting High-Accuracy "
              "Call Graph\nProfiles in Virtual Machines\" (CGO 2005) — CBSVM "
              "reproduction\n");
  std::printf("==============================================================="
              "=\n\n");
}

/// "overhead/accuracy" cell in the Table 2 style.
inline std::string cell(const exp::AccuracyCell &C) {
  return TablePrinter::formatDouble(C.OverheadPct, 1) + "/" +
         TablePrinter::formatDouble(C.AccuracyPct, 0);
}

inline const char *personalityName(vm::Personality Pers) {
  return Pers == vm::Personality::JikesRVM ? "Jikes RVM" : "J9";
}

/// Machine-readable mirror of a bench binary's printed tables. The
/// binary feeds it the same cells it hands to TablePrinter; when the
/// command line carries `--json FILE`, the destructor writes
///
///   {"artifact": ..., "tables": [{"name", "columns", "rows"}...],
///    "meta": {...}}
///
/// to FILE ("-" for stdout) and exits 2 if that write fails. Cells that
/// lex fully as numbers are emitted as JSON numbers, everything else as
/// strings. Without `--json` every call is a no-op, so the mirroring
/// costs nothing in the normal text mode.
class BenchReport {
public:
  BenchReport(support::ArgParser &Args, std::string Artifact)
      : Artifact(std::move(Artifact)), Path(Args.option("--json", "")) {}

  ~BenchReport() {
    if (Path.empty())
      return;
    std::string Doc = render();
    bool Written = false;
    if (Path == "-") {
      std::fputs(Doc.c_str(), stdout);
      std::fputc('\n', stdout);
      Written = std::fflush(stdout) == 0 && !std::ferror(stdout);
    } else {
      std::ofstream Out(Path);
      Out << Doc;
      Out.flush();
      Written = static_cast<bool>(Out);
    }
    // A report that did not reach its file is a failed run.
    if (!Written) {
      std::fprintf(stderr, "cannot write '%s'\n", Path.c_str());
      std::exit(2);
    }
  }

  bool enabled() const { return !Path.empty(); }

  void beginTable(std::string Name, std::vector<std::string> Columns) {
    if (!enabled())
      return;
    Tables.push_back({std::move(Name), std::move(Columns), {}});
  }

  void addRow(std::vector<std::string> Cells) {
    if (!enabled())
      return;
    Tables.back().Rows.push_back(std::move(Cells));
  }

  void note(std::string Key, std::string Value) {
    if (!enabled())
      return;
    Meta.emplace_back(std::move(Key), std::move(Value));
  }

private:
  /// Numbers pass through as raw JSON; anything else is escaped. The
  /// character whitelist keeps strtod's extras (inf/nan/hex) out of the
  /// raw path — those are not valid JSON numbers.
  static void emitCell(json::JsonWriter &W, const std::string &Cell) {
    bool Numeric = !Cell.empty();
    for (char C : Cell)
      if (!(C >= '0' && C <= '9') && C != '+' && C != '-' && C != '.' &&
          C != 'e' && C != 'E')
        Numeric = false;
    if (Numeric)
      Numeric = json::parseJson(Cell).ok();
    if (Numeric)
      W.raw(Cell);
    else
      W.value(Cell);
  }

  std::string render() const {
    json::JsonWriter W;
    W.beginObject();
    W.key("artifact");
    W.value(Artifact);
    W.key("tables");
    W.beginArray();
    for (const Table &T : Tables) {
      W.beginObject();
      W.key("name");
      W.value(T.Name);
      W.key("columns");
      W.beginArray();
      for (const std::string &C : T.Columns)
        W.value(C);
      W.endArray();
      W.key("rows");
      W.beginArray();
      for (const std::vector<std::string> &Row : T.Rows) {
        W.beginArray();
        for (const std::string &Cell : Row)
          emitCell(W, Cell);
        W.endArray();
      }
      W.endArray();
      W.endObject();
    }
    W.endArray();
    W.key("meta");
    W.beginObject();
    for (const auto &[Key, Value] : Meta) {
      W.key(Key);
      emitCell(W, Value);
    }
    W.endObject();
    W.endObject();
    return W.take();
  }

  struct Table {
    std::string Name;
    std::vector<std::string> Columns;
    std::vector<std::vector<std::string>> Rows;
  };

  std::string Artifact;
  std::string Path;
  std::vector<Table> Tables;
  std::vector<std::pair<std::string, std::string>> Meta;
};

} // namespace cbs::bench

#endif // CBSVM_BENCH_BENCHUTIL_H
