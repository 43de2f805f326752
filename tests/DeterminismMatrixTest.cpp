//===- tests/DeterminismMatrixTest.cpp - byte-identity across axes --------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
//
// The determinism contract in one table. Each row is the exact `cbsvm`
// command line of one feature set; each cell adds one axis setting and
// runs through the driver's own wiring (experiments/RunDriver.h). A
// cell's bundle {profile, metrics, report, repository entry, program
// output} must equal its row's baseline cell byte for byte, and the
// whole cell set, computed once by a ParallelRunner at 1 job and once
// at 8, must agree bundle for bundle. The baseline cell also carries the
// row's feature assertions: the members its feature must move, an
// optional row check, and the code cache's end-of-run invariant.
//
//===----------------------------------------------------------------------===//

#include "experiments/ParallelRunner.h"
#include "experiments/RunDriver.h"
#include "profiling/ProfileCodec.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>

#include <unistd.h>

using namespace cbs;

namespace fs = std::filesystem;

namespace {

/// A cell's artifacts, in comparison order: what `run --save`,
/// `--metrics-json` and `report --json` write, the repository entry
/// after the run, and what the program printed.
constexpr const char *ArtifactNames[] = {
    "profile", "metrics", "report", "repository entry", "program output"};
using Bundle = std::array<std::string, std::size(ArtifactNames)>;

/// How a row uses --profile-repo: not at all, over a fresh empty
/// directory (a miss, then a commit), or over a copy of one entry seeded
/// by a cold baseline run of the same row (a warm start, then a commit).
enum class RepoUse { None, Cold, Warm };

struct Row {
  const char *Name;
  /// `cbsvm` arguments: "run" or "report", the workload, the options.
  std::vector<std::string> Args;
  /// Report members (dotted paths) whose baseline values must sum to at
  /// least 1 for each entry: the row's feature really happened.
  std::vector<std::vector<const char *>> Features;
  RepoUse Repo = RepoUse::None;
  /// A configuration with no command-line option, applied after parsing.
  void (*Mutate)(exp::RunSetup &) = nullptr;
  /// Assertions on the baseline cell's report; a Warm row also gets the
  /// report of the cold run that seeded it.
  void (*Check)(const json::JsonValue &Report,
                const json::JsonValue *Cold) = nullptr;
};

struct Axis {
  const char *Name;
  std::vector<std::string> Args;
  /// --compile-jobs implies --aos, so those axes apply only to rows that
  /// already attach the adaptive system.
  bool NeedsAOS = false;
};

const std::vector<Axis> Axes = {
    {"baseline", {}}, // compile-jobs 0
    {"compile-jobs 1", {"--compile-jobs", "1"}, true},
    {"compile-jobs 4", {"--compile-jobs", "4"}, true},
};

void forceDeoptStorm(exp::RunSetup &S) {
  S.AOS->Deopt.Enabled = true;
  S.AOS->Deopt.ForceStormForTesting = true;
}

const std::vector<std::string> OsrArgs = {
    "--aos", "--osr", "--compile-latency-scale", "0.2", "--deopt-threshold",
    "60"};
const std::vector<std::string> DecayArgs = {
    "--decay-ticks", "4", "--decay-factor", "0.5", "--every-ticks", "4",
    "--phase-threshold", "75"};

std::vector<std::string> concat(std::vector<std::string> A,
                                const std::vector<std::string> &B) {
  A.insert(A.end(), B.begin(), B.end());
  return A;
}

/// The member at the dotted \p Path of \p Doc, or nullptr.
const json::JsonValue *member(const json::JsonValue &Doc,
                              std::string_view Path) {
  const json::JsonValue *V = &Doc;
  for (size_t Dot = 0; V && Dot != std::string_view::npos;) {
    Dot = Path.find('.');
    V = V->find(Path.substr(0, Dot));
    Path.remove_prefix(Dot == std::string_view::npos ? 0 : Dot + 1);
  }
  return V;
}

/// The number at the dotted \p Path of \p Doc (missing: 0).
double num(const json::JsonValue &Doc, std::string_view Path) {
  const json::JsonValue *V = member(Doc, Path);
  return V ? V->NumVal : 0;
}

/// The elements of the array at \p Path (missing: none).
const std::vector<json::JsonValue> &elements(const json::JsonValue &Doc,
                                             std::string_view Path) {
  static const std::vector<json::JsonValue> None;
  const json::JsonValue *V = member(Doc, Path);
  return V ? V->Elements : None;
}

// The queue installs no more plans than it accepted.
void checkQueue(const json::JsonValue &Report, const json::JsonValue *) {
  EXPECT_GE(num(Report, "aos.queue.enqueued"),
            num(Report, "aos.queue.installs"));
}

// The quality monitor's phase shift freezes a flight-recorder dump, and
// the overhead components account for the whole reported fraction.
void checkSelfObservability(const json::JsonValue &Report,
                            const json::JsonValue *) {
  const auto &Dumps = elements(Report, "flightRecorder.dumps");
  EXPECT_TRUE(std::any_of(Dumps.begin(), Dumps.end(), [](const auto &D) {
    return D.find("trigger") && D.find("trigger")->Str == "phase_shift";
  }));
  double Sum = 0;
  for (const json::JsonValue &C : elements(Report, "overhead.components"))
    Sum += C.numberOr("fractionPct", 0);
  EXPECT_NEAR(Sum, num(Report, "overhead.totalFractionPct"), 1e-9);
}

// After the phase-shift deopts and their recompiles, the last quality
// window's overlap beats the post-shift trough.
void checkDeoptRecovery(const json::JsonValue &Report,
                        const json::JsonValue *) {
  std::vector<double> Overlap;
  for (const json::JsonValue &W : elements(Report, "quality.windows"))
    Overlap.push_back(W.numberOr("overlapPct", 0));
  ASSERT_FALSE(Overlap.empty());
  EXPECT_GT(Overlap.back(), *std::min_element(Overlap.begin(), Overlap.end()));
}

// The cold seed run missed and committed; the warm run loaded that one
// entry, committed again, and reached its first optimized install in
// less than half the cold run's time — the time-to-peak the repository
// exists to buy. Warm compiles are enqueued at cycle 0 and install one
// modelled latency later; without them the warm run installs only a few
// cycles before the cold one, which a plain `<` would still accept.
void checkWarmStart(const json::JsonValue &Warm, const json::JsonValue *Cold) {
  ASSERT_NE(Cold, nullptr);
  EXPECT_EQ(num(*Cold, "repo.loaded"), 0);
  EXPECT_EQ(num(*Cold, "repo.committed"), 1);
  EXPECT_EQ(member(*Cold, "aos.warm"), nullptr);
  EXPECT_EQ(num(Warm, "repo.loaded"), 1);
  EXPECT_EQ(num(Warm, "repo.rejected"), 0);
  EXPECT_EQ(num(Warm, "repo.runs"), 1);
  EXPECT_EQ(num(Warm, "repo.committed"), 1);
  double WarmFirst = num(Warm, "aos.queue.firstInstallCycle");
  EXPECT_GT(WarmFirst, 0);
  EXPECT_LT(WarmFirst, num(*Cold, "aos.queue.firstInstallCycle") / 2);
}

const std::vector<Row> Rows = {
    {"run jess", {"run", "jess"}, {}},
    {"run jess --aos", {"run", "jess", "--aos"}, {{"aos.queue.installs"}}},
    {"report jess --aos", {"report", "jess", "--aos"},
     {{"aos.queue.installs"}}},
    {"run phased --aos --compile-latency-scale 25",
     {"run", "phased", "--aos", "--compile-latency-scale", "25"},
     {{"aos.queue.stale_drops"}, {"aos.queue.installs"}}, RepoUse::None,
     nullptr, checkQueue},
    {"run jess --aos + forced deopt storm", {"run", "jess", "--aos"},
     {{"aos.deopt.count"}}, RepoUse::None, forceDeoptStorm},
    {"run phased --osr", concat({"run", "phased"}, OsrArgs),
     {{"osr.entries"}, {"osr.graveyardReclaimedInstructions"}}},
    {"run phased --osr + forced deopt storm",
     concat({"run", "phased"}, OsrArgs),
     {{"aos.deopt.count"}, {"osr.entries", "osr.exits"}}, RepoUse::None,
     forceDeoptStorm},
    {"report phased --decay-ticks", concat({"report", "phased"}, DecayArgs),
     {{"quality.phaseShifts"}}, RepoUse::None, nullptr,
     checkSelfObservability},
    {"report phased --aos --decay-ticks",
     concat({"report", "phased", "--aos"}, DecayArgs),
     {{"quality.phaseShifts"}, {"aos.queue.installs"}}},
    // Guard policing: the monitor flags the hot-set swap, the phase-shift
    // trigger deoptimizes the stale speculative versions and recompiles.
    {"report phased --deopt-threshold 40",
     {"report", "phased", "--deopt-threshold", "40", "--decay-ticks", "8",
      "--phase-threshold", "70"},
     {{"quality.phaseShifts"}, {"aos.deopt.count"},
      {"aos.deopt.phaseShiftDeopts"}, {"aos.deopt.recompiles"}},
     RepoUse::None, nullptr, checkDeoptRecovery},
    {"run jess --profile-repo (cold)", {"run", "jess"}, {{"repo.committed"}},
     RepoUse::Cold},
    {"run jess --profile-repo (warm)", {"run", "jess"},
     {{"repo.loaded"}, {"aos.warm.enqueued"}, {"repo.committed"}},
     RepoUse::Warm},
    {"report phased --aos --profile-repo (warm)", {"report", "phased", "--aos"},
     {{"aos.warm.enqueued"}}, RepoUse::Warm, nullptr, checkWarmStart},
    // jess's warm start installs its hot code before any frame runs long
    // enough to promote; db's main loop still transfers once.
    {"run db --profile-repo (warm) --osr", concat({"run", "db"}, OsrArgs),
     {{"repo.loaded"}, {"osr.entries", "osr.exits"}}, RepoUse::Warm},
    // mtrt is multithreaded: thread switches interleave with sampling,
    // compiles and frame transfers.
    {"run mtrt", {"run", "mtrt"}, {}},
    {"run mtrt --aos", {"run", "mtrt", "--aos"}, {{"aos.queue.installs"}}},
    {"run mtrt --osr", concat({"run", "mtrt"}, OsrArgs),
     {{"osr.entries", "osr.exits"}}},
    {"run mtrt --profile-repo (warm)", {"run", "mtrt"},
     {{"repo.loaded"}, {"aos.warm.enqueued"}}, RepoUse::Warm},
};

/// Runs \p R's command plus \p Extra exactly as `cbsvm` runs it, in the
/// private directory \p Dir; a Warm row starts from a copy of \p Seed.
Bundle runCell(const Row &R, const std::vector<std::string> &Extra,
               const fs::path &Dir, const fs::path &Seed = {}) {
  std::vector<std::string> Argv =
      concat({R.Args.begin() + 1, R.Args.end()}, Extra);
  fs::create_directories(Dir);
  if (R.Repo == RepoUse::Warm && !Seed.empty())
    fs::copy(Seed, Dir / "repo", fs::copy_options::recursive);
  if (R.Repo != RepoUse::None)
    Argv = concat(Argv, {"--profile-repo", (Dir / "repo").string()});

  support::ArgParser Args(Argv);
  exp::RunSetup S = exp::parseRunSetup(Args);
  std::optional<tel::FlightRecorder> Recorder;
  if (R.Args[0] == "report")
    Recorder.emplace(exp::parseReportOptions(Args, S));
  Args.finish();
  if (R.Mutate)
    R.Mutate(S);
  if (Recorder)
    S.Config.Recorder = &*Recorder;

  exp::DriverRun Run(S);
  Run.run();
  Bundle B;
  B[2] = aos::buildReportJson(Run.reportInputs());
  if (!S.RepoDir.empty()) {
    // The report echoes the cell's own directory as repo.dir: mask
    // exactly that member.
    json::JsonValue Doc = *json::parseJson(B[2]).Value;
    for (auto &[Key, Section] : Doc.Members)
      for (auto &[Member, Value] : Section.Members)
        if (Key == "repo" && Member == "dir")
          Value.Str = "<cell repository>";
    B[2] = json::writeJson(Doc);
    std::ifstream Entry(prof::ProfileRepository(S.RepoDir).pathFor(S.Name));
    B[3].assign(std::istreambuf_iterator<char>(Entry), {});
  }
  B[0] = prof::ProfileCodec::encode(Run.vm().profile());
  B[1] = Run.vm().metrics().toJson();
  for (int64_t V : Run.vm().output())
    B[4] += std::to_string(V) + "\n";
  return B;
}

/// "" when \p Cell equals \p Base; else names the row, the axis and the
/// first differing artifact.
std::string compareBundles(const std::string &Row, const std::string &Axis,
                           const Bundle &Base, const Bundle &Cell) {
  for (size_t I = 0; I != Base.size(); ++I) {
    if (Base[I] == Cell[I])
      continue;
    auto [At, Unused] = std::mismatch(Base[I].begin(), Base[I].end(),
                                      Cell[I].begin(), Cell[I].end());
    return "row '" + Row + "' axis '" + Axis + "': " + ArtifactNames[I] +
           " differs from the baseline at byte " +
           std::to_string(At - Base[I].begin());
  }
  return "";
}

/// A scratch directory under the test temp root, private to this
/// process: two builds' matrices may run at once.
fs::path scratchRoot(const char *Name) {
  fs::path Root = fs::path(testing::TempDir()) /
                  (std::string(Name) + "-" + std::to_string(getpid()));
  fs::remove_all(Root);
  return Root;
}

} // namespace

TEST(DeterminismMatrix, EveryCellIsByteIdenticalToItsRowBaseline) {
  fs::path Root = scratchRoot("cbsvm-determinism-matrix");
  struct Cell {
    size_t Row, Axis;
  };
  std::vector<Cell> Cells;
  std::vector<fs::path> Seeds(Rows.size());
  std::vector<std::optional<json::JsonValue>> ColdReports(Rows.size());
  std::vector<bool> UsesAOS(Rows.size());
  for (size_t R = 0; R != Rows.size(); ++R) {
    support::ArgParser Args({Rows[R].Args.begin() + 1, Rows[R].Args.end()});
    UsesAOS[R] = exp::parseRunSetup(Args).AOS.has_value() ||
                 Rows[R].Repo != RepoUse::None;
    for (size_t A = 0; A != Axes.size(); ++A)
      if (UsesAOS[R] || !Axes[A].NeedsAOS)
        Cells.push_back({R, A});
    // One seeded entry per warm row, read-only to every cell of the row.
    if (Rows[R].Repo == RepoUse::Warm) {
      Seeds[R] = Root / ("seed-" + std::to_string(R));
      ColdReports[R] = json::parseJson(runCell(Rows[R], {}, Seeds[R])[2]).Value;
      Seeds[R] /= "repo";
    }
  }

  auto ComputeAll = [&](unsigned Jobs) {
    std::vector<Bundle> Bundles(Cells.size());
    fs::path Pass = Root / ("jobs-" + std::to_string(Jobs));
    fs::create_directories(Pass);
    exp::ParallelConfig Config;
    Config.Jobs = Jobs;
    exp::ParallelRunner(Config).run(
        Cells.size(), [&](exp::ParallelRunner::TaskContext &Ctx) {
          const Cell &C = Cells[Ctx.Index];
          Bundles[Ctx.Index] =
              runCell(Rows[C.Row], Axes[C.Axis].Args,
                      Pass / std::to_string(Ctx.Index), Seeds[C.Row]);
        });
    return Bundles;
  };
  std::vector<Bundle> Jobs1 = ComputeAll(1);
  std::vector<Bundle> Jobs8 = ComputeAll(8);

  size_t Baseline = 0;
  for (size_t I = 0; I != Cells.size(); ++I) {
    const Row &R = Rows[Cells[I].Row];
    std::string Axis = Axes[Cells[I].Axis].Name;
    if (Cells[I].Axis == 0) {
      Baseline = I;
      SCOPED_TRACE("row '" + std::string(R.Name) + "'");
      json::JsonValue Report = *json::parseJson(Jobs1[I][2]).Value;
      json::JsonValue Metrics = *json::parseJson(Jobs1[I][1]).Value;
      EXPECT_EQ(Report.find("state")->Str, "finished");
      for (const std::vector<const char *> &Feature : R.Features) {
        double Sum = 0;
        for (const char *Path : Feature)
          Sum += num(Report, Path);
        EXPECT_GE(Sum, 1) << "does not exercise " << Feature[0];
      }
      // Once an adaptive run finishes, every retired code version has
      // been freed exactly once and the graveyard is empty. Every such
      // row retires code, so the equality is never vacuous.
      if (UsesAOS[Cells[I].Row]) {
        const json::JsonValue &Gauges = *Metrics.find("gauges");
        double Retired = Gauges.numberOr("code.recompiles", 0) +
                         Gauges.numberOr("code.invalidations", 0);
        EXPECT_GE(Retired, 1);
        EXPECT_EQ(Gauges.numberOr("code.graveyard_instructions", -1), 0);
        EXPECT_EQ(Gauges.numberOr("code.graveyard_reclaims", -1), Retired);
      }
      if (R.Check) {
        const auto &Cold = ColdReports[Cells[I].Row];
        R.Check(Report, Cold ? &*Cold : nullptr);
      }
    }
    EXPECT_EQ(compareBundles(R.Name, Axis, Jobs1[Baseline], Jobs1[I]), "");
    EXPECT_EQ(compareBundles(R.Name, Axis + " at jobs 8", Jobs1[I], Jobs8[I]),
              "");
  }
  fs::remove_all(Root);
}

TEST(DeterminismMatrix, CanaryCellIsReportedAsAMismatch) {
  // A cell that really differs — the same row at another seed — must be
  // caught and named by row, axis and first differing artifact.
  fs::path Root = scratchRoot("cbsvm-determinism-canary");
  const Row &R = Rows.front();
  Bundle Seed1 = runCell(R, {}, Root / "seed1");
  Bundle Seed2 = runCell(R, {"--seed", "2"}, Root / "seed2");
  std::string Expected = "row 'run jess' axis 'seed 2': profile differs";
  EXPECT_EQ(compareBundles(R.Name, "seed 2", Seed1, Seed2)
                .substr(0, Expected.size()),
            Expected);
  EXPECT_EQ(compareBundles(R.Name, "repeat", Seed1,
                           runCell(R, {}, Root / "repeat")),
            "");
  fs::remove_all(Root);
}
