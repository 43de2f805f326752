//===- fuzz/Fuzzer.cpp - Differential fuzzing campaign driver --------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"

#include "bytecode/Verifier.h"
#include "experiments/ParallelRunner.h"
#include "telemetry/MetricRegistry.h"

#include <fstream>
#include <ostream>

using namespace cbs;
using namespace cbs::fuzz;

namespace {

/// Everything one task produces; written into its grid slot on the
/// worker, consumed at commit time on the calling thread.
struct TaskResult {
  unsigned OracleChecks = 0;
  unsigned ReduceChecks = 0;
  unsigned ReduceAccepted = 0;
  unsigned VmRuns = 0;
  std::vector<Violation> Violations;
};

std::vector<const Oracle *> selectOracles(const OracleRegistry &Registry,
                                          const std::string &Filter) {
  std::vector<const Oracle *> Selected;
  for (const std::unique_ptr<Oracle> &O : Registry.all())
    if (Filter.empty() || Filter == O->id())
      Selected.push_back(O.get());
  return Selected;
}

} // namespace

FuzzReport fuzz::runFuzz(const FuzzOptions &Options,
                         const OracleRegistry &Registry,
                         tel::MetricRegistry *Metrics, std::ostream *Log) {
  FuzzReport Report;
  std::vector<const Oracle *> Oracles =
      selectOracles(Registry, Options.OracleFilter);
  if (Oracles.empty()) {
    if (Log)
      *Log << "fuzz: no oracle matches '" << Options.OracleFilter << "'\n";
    return Report;
  }

  ProgramGenerator Generator(Options.Shape);
  std::vector<TaskResult> Slots(Options.Runs);

  exp::ParallelConfig Par;
  Par.Jobs = Options.Jobs;
  Par.Metrics = Metrics;
  exp::ParallelRunner Runner(Par);

  auto Task = [&](exp::ParallelRunner::TaskContext &Ctx) {
    uint64_t Seed = Options.SeedBase + Ctx.Index;
    TaskResult &Slot = Slots[Ctx.Index];
    Ctx.Metrics.counter("fuzz.runs") += 1;

    ProgramSpec Spec = Generator.makeSpec(Seed);
    bc::Program P = buildProgram(Spec);

    // A verifier rejection is a generator bug — report it through the
    // same violation channel so it is visible, reducible by hand, and
    // fails the campaign.
    if (bc::VerifyResult VR = bc::verifyProgram(P); !VR.ok()) {
      Violation V;
      V.Seed = Seed;
      V.OracleId = "verifier";
      V.Message = VR.str();
      V.OriginalAtoms = V.ReducedAtoms = Spec.atomCount();
      Artifact A;
      A.Seed = Seed;
      A.Shape = Options.Shape;
      A.OracleId = V.OracleId;
      A.Message = V.Message;
      A.Spec = Spec;
      V.ArtifactJson = writeArtifact(A);
      Slot.Violations.push_back(std::move(V));
      return;
    }

    // One set of runs for every selected oracle: a configuration two
    // oracles compare runs once.
    ProgramRuns Runs(P, Seed);
    for (const Oracle *O : Oracles) {
      ++Slot.OracleChecks;
      std::string Message = O->check({P, Seed, Runs});
      if (Message.empty())
        continue;

      Violation V;
      V.Seed = Seed;
      V.OracleId = O->id();
      V.OriginalAtoms = Spec.atomCount();

      ProgramSpec Final = Spec;
      if (Options.Reduce) {
        ReduceResult RR =
            reduceSpec(Spec, *O, Seed, std::move(Message));
        Slot.ReduceChecks += RR.ChecksUsed;
        Slot.ReduceAccepted += RR.Accepted;
        Slot.VmRuns += RR.VmRuns;
        V.ReduceChecks = RR.ChecksUsed;
        Final = std::move(RR.Spec);
        Message = std::move(RR.Message);
      }
      V.ReducedAtoms = Final.atomCount();
      V.Message = Message;

      Artifact A;
      A.Seed = Seed;
      A.Shape = Options.Shape;
      A.OracleId = V.OracleId;
      A.Message = V.Message;
      A.Spec = std::move(Final);
      V.ArtifactJson = writeArtifact(A);
      Slot.Violations.push_back(std::move(V));
    }
    Slot.VmRuns += Runs.vmRuns();
  };

  auto Commit = [&](exp::ParallelRunner::TaskContext &Ctx) {
    TaskResult &Slot = Slots[Ctx.Index];
    ++Report.Runs;
    Report.OracleChecks += Slot.OracleChecks;
    if (Metrics) {
      Metrics->counter("fuzz.oracle_checks") += Slot.OracleChecks;
      Metrics->counter("fuzz.reduce_checks") += Slot.ReduceChecks;
      Metrics->counter("fuzz.reduce_accepted") += Slot.ReduceAccepted;
      Metrics->counter("fuzz.vm_runs") += Slot.VmRuns;
      Metrics->counter("fuzz.violations") += Slot.Violations.size();
    }
    for (Violation &V : Slot.Violations) {
      if (!Options.ArtifactDir.empty()) {
        std::string Path = Options.ArtifactDir + "/" + V.OracleId + "-seed" +
                           std::to_string(V.Seed) + ".json";
        std::ofstream Out(Path);
        Out << V.ArtifactJson << '\n';
        if (Out.good()) {
          V.ArtifactPath = Path;
          if (Metrics)
            Metrics->counter("fuzz.artifacts_written") += 1;
        } else {
          if (Log)
            *Log << "fuzz: cannot write artifact " << Path << "\n";
          Report.UnwrittenArtifacts.push_back(Path);
        }
      }
      if (Log) {
        *Log << "fuzz: seed " << V.Seed << " violates " << V.OracleId << ": "
             << V.Message << " (reduced " << V.OriginalAtoms << " -> "
             << V.ReducedAtoms << " atoms";
        if (!V.ArtifactPath.empty())
          *Log << ", artifact " << V.ArtifactPath;
        *Log << ")\n";
      }
      Report.Violations.push_back(std::move(V));
    }
    Slot = TaskResult(); // free per-task memory as the campaign drains
  };

  Runner.run(Options.Runs, Task, Commit);

  if (Log)
    *Log << "fuzz: " << Report.Runs << " runs, " << Report.OracleChecks
         << " oracle checks, " << Report.Violations.size() << " violations\n";
  return Report;
}

std::string fuzz::replayArtifact(const Artifact &A,
                                 const OracleRegistry &Registry,
                                 std::string &Error) {
  Error.clear();
  const Oracle *O = Registry.find(A.OracleId);
  if (!O) {
    Error = "unknown oracle '" + A.OracleId + "'";
    return "";
  }
  if (std::string Problem = validateSpec(A.Spec); !Problem.empty()) {
    Error = "invalid spec: " + Problem;
    return "";
  }
  bc::Program P = buildProgram(A.Spec);
  if (bc::VerifyResult VR = bc::verifyProgram(P); !VR.ok()) {
    Error = "rebuilt program fails verification: " + VR.str();
    return "";
  }
  ProgramRuns Runs(P, A.Seed);
  return O->check({P, A.Seed, Runs});
}
