//===- bench/BenchUtil.h - shared bench helpers ------------------*- C++ -*-===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the table/figure reproduction binaries. Every
/// binary prints the paper artifact it regenerates, the configuration,
/// and its tables; each table's rows live in one BenchReport, which
/// renders them as text and, with `--json`, as JSON. CBSVM_RUNS
/// controls the median-of-N repetition count (the paper uses 10; the
/// default here is 3 to keep the full bench sweep interactive).
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

inline const char *personalityName(vm::Personality Pers) {
  return Pers == vm::Personality::JikesRVM ? "Jikes RVM" : "J9";
}

/// The one table model of a bench binary. The binary hands it each
/// table's header and rows; print() renders the current table as text
/// through TablePrinter, and when the command line carries `--json FILE`
/// the destructor writes the same rows as
///
///   {"artifact": ..., "tables": [{"name", "columns", "rows"}...],
///    "meta": {...}}
///
/// to FILE ("-" for stdout) and exits 2 if that write fails. Cells that
/// match the JSON number grammar are emitted as JSON numbers, everything
/// else as strings. Separators shape the text only.
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

  /// Prints the banner naming the artifact and what it shows.
  void printHeader(const char *Description) const {
    const std::string Rule(64, '=');
    std::printf("%s\n%s — %s\n", Rule.c_str(), Artifact.c_str(), Description);
    std::printf("Arnold & Grove, \"Collecting and Exploiting High-Accuracy "
                "Call Graph\nProfiles in Virtual Machines\" (CGO 2005) — "
                "CBSVM reproduction\n%s\n\n",
                Rule.c_str());
  }

  void beginTable(std::string Name, std::vector<std::string> Columns) {
    Tables.push_back({std::move(Name), std::move(Columns), {}, {}});
  }

  void addRow(std::vector<std::string> Cells) {
    Tables.back().Rows.push_back(std::move(Cells));
  }

  /// A horizontal rule below the rows added so far (text only).
  void separator() {
    Tables.back().Separators.push_back(Tables.back().Rows.size());
  }

  /// Renders the current table to stdout.
  void print() const {
    const Table &T = Tables.back();
    TablePrinter TP;
    TP.setHeader(T.Columns);
    auto Sep = T.Separators.begin();
    for (size_t I = 0; I <= T.Rows.size(); ++I) {
      for (; Sep != T.Separators.end() && *Sep == I; ++Sep)
        TP.addSeparator();
      if (I != T.Rows.size())
        TP.addRow(T.Rows[I]);
    }
    std::fputs(TP.render().c_str(), stdout);
  }

  void note(std::string Key, std::string Value) {
    Meta.emplace_back(std::move(Key), std::move(Value));
  }

  /// The `--json` document.
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

private:
  /// Cells that match the JSON number grammar exactly pass through as
  /// raw JSON; anything else (inf, nan, hex, "1.", "+1") is a string.
  static void emitCell(json::JsonWriter &W, const std::string &Cell) {
    if (json::isNumber(Cell))
      W.raw(Cell);
    else
      W.value(Cell);
  }

  struct Table {
    std::string Name;
    std::vector<std::string> Columns;
    std::vector<std::vector<std::string>> Rows;
    /// Row counts at which the text draws a rule, in order.
    std::vector<size_t> Separators;
  };

  std::string Artifact;
  std::string Path;
  std::vector<Table> Tables;
  std::vector<std::pair<std::string, std::string>> Meta;
};

/// Table 2's two Samples x Stride grids, overhead % and accuracy: each
/// becomes one report table, printed under its title.
inline void reportSweep(BenchReport &Report, const exp::SweepResult &R) {
  std::vector<std::string> Header{"Samples\\Stride"};
  for (uint32_t S : R.Strides)
    Header.push_back(std::to_string(S));
  struct Grid {
    const char *Name;
    const char *Title;
    double exp::AccuracyCell::*Value;
    int Digits;
  };
  for (const Grid &G :
       {Grid{"overhead_pct", "overhead %", &exp::AccuracyCell::OverheadPct, 3},
        Grid{"accuracy_pct", "accuracy (overlap %, 0-100)",
             &exp::AccuracyCell::AccuracyPct, 2}}) {
    std::printf("--- %s ---\n", G.Title);
    Report.beginTable(G.Name, Header);
    for (size_t SI = 0; SI != R.SamplesPerTick.size(); ++SI) {
      std::vector<std::string> Row{std::to_string(R.SamplesPerTick[SI])};
      for (const exp::AccuracyCell &C : R.Cells[SI])
        Row.push_back(TablePrinter::formatDouble(C.*G.Value, G.Digits));
      Report.addRow(std::move(Row));
    }
    Report.print();
    std::printf("\n");
  }
}

} // namespace cbs::bench

#endif // CBSVM_BENCH_BENCHUTIL_H
