//===- bench/figure5_compile_latency.cpp - latency-vs-speedup sweep -------------===//
//
// Part of the CBSVM project.
//
// Figure 5 companion: how the modelled background-compile latency
// shifts *when* recompiled code installs without changing what the
// steady-state measurement window sees. Sweeps the AOS's
// CompileLatencyScale over {0, 1, 4, 16, 64} on the Jikes personality
// with the new inliner driven by chosen-CBS profiles, reporting the
// steady-state speedup over no-profile inlining, the install count,
// the first install's virtual cycle, and the mean enqueue-to-install
// wait.
//
// Expected shape: first-install cycle and mean wait grow monotonically
// with the scale (the latency model is real), while the speedup at the
// default scale (1) stays within noise of scale 0 — installs land well
// inside the warmup window, so Figure 5's steady-state conclusions are
// insensitive to the modelled compile latency until it grows by orders
// of magnitude.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "support/Statistics.h"
#include "telemetry/TraceSink.h"

#include <algorithm>

using namespace cbs;
using namespace cbs::bench;

namespace {

constexpr double Scales[] = {0, 1, 4, 16, 64};
constexpr size_t NumScales = sizeof(Scales) / sizeof(Scales[0]);

struct ScaleResult {
  exp::ThroughputResult Run;
  uint64_t FirstInstallCycle = 0; ///< 0 when nothing installed
  double MeanWaitCycles = 0;
  uint64_t Installs = 0;
};

ScaleResult measureAtScale(const bc::Program &P, double Scale) {
  tel::CollectorSink Sink;
  exp::SpeedupOptions Options;
  Options.Pers = vm::Personality::JikesRVM;
  Options.Oracle = &exp::newJikesOracle();
  Options.Prof = exp::chosenCBS(vm::Personality::JikesRVM);
  Options.AOS.CompileLatencyScale = Scale;
  Options.Trace = &Sink;

  ScaleResult R;
  R.Run = exp::measureThroughput(P, Options);
  uint64_t First = UINT64_MAX, WaitSum = 0;
  for (const tel::TraceEvent &E : Sink.events()) {
    if (E.Kind != tel::EventKind::CompileInstall)
      continue;
    ++R.Installs;
    First = std::min(First, E.Cycles);
    WaitSum += E.C; // enqueue-to-install wait in virtual cycles
  }
  R.FirstInstallCycle = First == UINT64_MAX ? 0 : First;
  R.MeanWaitCycles =
      R.Installs == 0 ? 0 : static_cast<double>(WaitSum) / R.Installs;
  return R;
}

} // namespace

int main(int Argc, char **Argv) {
  support::ArgParser Args(Argc, Argv);
  BenchReport Report(Args, "Figure 5 latency");
  unsigned Jobs = jobsFromArgs(Args);
  Args.finish();
  Report.printHeader(
      "Compile-latency sweep: install timing vs steady-state speedup");

  const std::vector<wl::WorkloadInfo> &Suite = wl::suite();

  struct WorkloadResult {
    exp::ThroughputResult Base;
    ScaleResult AtScale[NumScales];
  };
  std::vector<WorkloadResult> Results(Suite.size());

  tel::MetricRegistry RunnerMetrics;
  exp::ParallelConfig Par;
  Par.Jobs = Jobs;
  Par.Metrics = &RunnerMetrics;
  exp::ParallelRunner Runner(Par);

  Report.beginTable("latency_sweep",
                    {"Benchmark", "scale", "speedup %", "installs",
                     "first install Mcyc", "mean wait kcyc"});
  std::vector<double> SpeedupByScale[NumScales];

  Runner.run(
      Suite.size(),
      [&](exp::ParallelRunner::TaskContext &Ctx) {
        bc::Program P = Suite[Ctx.Index].Build(wl::InputSize::Steady, 1);
        exp::SpeedupOptions Base;
        Base.Pers = vm::Personality::JikesRVM;
        // Static decisions from an empty DCG.
        Base.Oracle = &exp::newJikesOracle();
        Base.Prof.Kind = vm::ProfilerKind::None;
        Results[Ctx.Index].Base = exp::measureThroughput(P, Base);
        for (size_t SI = 0; SI != NumScales; ++SI)
          Results[Ctx.Index].AtScale[SI] = measureAtScale(P, Scales[SI]);
        Ctx.Metrics.counter("exp.vm_runs") += 1 + NumScales;
      },
      [&](exp::ParallelRunner::TaskContext &Ctx) {
        const WorkloadResult &R = Results[Ctx.Index];
        for (size_t SI = 0; SI != NumScales; ++SI) {
          const ScaleResult &S = R.AtScale[SI];
          double Pct = exp::speedupPercent(S.Run, R.Base);
          SpeedupByScale[SI].push_back(Pct);
          Report.addRow(
              {SI == 0 ? Suite[Ctx.Index].Name : "",
               TablePrinter::formatDouble(Scales[SI], 0),
               TablePrinter::formatDouble(Pct, 1), std::to_string(S.Installs),
               TablePrinter::formatDouble(S.FirstInstallCycle / 1e6, 2),
               TablePrinter::formatDouble(S.MeanWaitCycles / 1e3, 1)});
        }
      });
  printRunnerSummary(RunnerMetrics);

  Report.separator();
  for (size_t SI = 0; SI != NumScales; ++SI)
    Report.addRow({SI == 0 ? "Average" : "",
                   TablePrinter::formatDouble(Scales[SI], 0),
                   TablePrinter::formatDouble(mean(SpeedupByScale[SI]), 1),
                   "", "", ""});
  Report.print();
  std::printf(
      "\nReading: first-install cycle and mean wait must grow with the "
      "scale; the scale-1 speedup column must match scale 0 within "
      "noise (installs land inside the warmup window either way).\n");
  return 0;
}
