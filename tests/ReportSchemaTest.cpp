//===- tests/ReportSchemaTest.cpp - report --json schema pin -------------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
//
// Golden-schema test for the machine-readable self-observability report
// (`cbsvm report --json`, built by aos::buildReportJson). Downstream
// consumers key on section and field names, so the schema is a
// contract: this test pins the top-level sections and the keys inside
// each — including the conditional aos/deopt/osr sections — and fails
// on any rename, removal, or accidental demotion of a section.
//
//===----------------------------------------------------------------------===//

#include "aos/AdaptiveSystem.h"
#include "aos/ReportJson.h"
#include "experiments/Experiments.h"
#include "opt/InlineOracle.h"
#include "profiling/DynamicCallGraph.h"
#include "support/Json.h"
#include "telemetry/FlightRecorder.h"
#include "vm/VirtualMachine.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace cbs;

namespace {

/// Member names of \p V in document order (empty if not an object).
std::vector<std::string> keysOf(const json::JsonValue &V) {
  std::vector<std::string> Keys;
  for (const auto &[Name, Member] : V.Members)
    Keys.push_back(Name);
  return Keys;
}

struct BuiltReport {
  json::JsonValue Doc;
};

/// Runs the phased workload under the full self-observability stack and
/// returns the parsed report. \p WithAOS attaches the adaptive system
/// (with deopt policing on); \p WithOSR additionally enables on-stack
/// replacement; \p WithWarm warm-starts the AOS from a prior run's
/// profile; \p WithRepo fills the driver's repo section.
BuiltReport buildReport(bool WithAOS, bool WithOSR, bool WithWarm = false,
                        bool WithRepo = false) {
  bc::Program P = wl::buildPhased(wl::InputSize::Small, 1);
  vm::VMConfig Config = exp::jitOnlyConfig(P, vm::Personality::JikesRVM, 1);
  Config.Profiler.Kind = vm::ProfilerKind::CBS;
  Config.Profiler.Quality.EveryTicks = 8;
  Config.EnableOSR = WithOSR;

  tel::FlightRecorder Recorder((tel::FlightRecorderConfig()));
  Config.Recorder = &Recorder;

  aos::AOSConfig AC;
  AC.Deopt.Enabled = true;
  if (WithWarm) {
    // Any non-null snapshot marks the system warm-started.
    prof::DynamicCallGraph Seeded;
    Seeded.addSample({0, 0}, 100);
    AC.WarmStart.Profile =
        std::make_shared<const prof::DCGSnapshot>(Seeded.snapshot());
  }
  opt::NewJikesOracle Oracle;
  aos::AdaptiveSystem AOS(&Oracle, AC);
  vm::VirtualMachine VM(P, Config);
  if (WithAOS)
    VM.setClient(&AOS);
  EXPECT_EQ(VM.run(), vm::RunState::Finished) << VM.trapMessage();
  Recorder.requestDump("end_of_run", VM.cycles());

  aos::ReportInputs In;
  In.Workload = "phased";
  In.Size = wl::inputSizeName(wl::InputSize::Small);
  In.Seed = 1;
  In.State = vm::runStateName(vm::RunState::Finished);
  In.VM = &VM;
  In.AOS = WithAOS ? &AOS : nullptr;
  In.Recorder = &Recorder;
  if (WithRepo) {
    In.Repo.Present = true;
    In.Repo.Dir = "some/repo";
    In.Repo.Loaded = 1;
    In.Repo.Runs = 2;
    In.Repo.Committed = 1;
  }
  std::string Json = aos::buildReportJson(In);

  json::JsonParseResult R = json::parseJson(Json);
  EXPECT_TRUE(R.ok()) << R.Error;
  BuiltReport Out;
  if (R.ok())
    Out.Doc = *R.Value;
  return Out;
}

/// Expects \p Text (json::writeText of the whole report) to show \p V
/// at \p Path: a non-empty container titles its own section, and every
/// scalar it holds directly or in a table row appears as its lexeme (a
/// container in a table cell as its element count).
void expectRendered(const std::string &Text, const std::string &Path,
                    const json::JsonValue &V) {
  auto Shown = [&Text](const json::JsonValue &Leaf) {
    std::string Lexeme = Leaf.Str;
    if (Leaf.isArray() || Leaf.isObject())
      Lexeme = std::to_string(Leaf.Elements.size() + Leaf.Members.size());
    else if (Leaf.K == json::JsonValue::Kind::Bool)
      Lexeme = Leaf.BoolVal ? "true" : "false";
    EXPECT_NE(Text.find(Lexeme), std::string::npos) << Lexeme;
  };
  if (!Path.empty() && (!V.Members.empty() || !V.Elements.empty())) {
    EXPECT_NE(Text.find("\n" + Path + ":\n"), std::string::npos) << Path;
  }
  for (const auto &[Name, Member] : V.Members) {
    if (Member.isObject() || Member.isArray())
      expectRendered(Text, Path.empty() ? Name : Path + "." + Name, Member);
    else
      Shown(Member);
  }
  for (const json::JsonValue &Row : V.Elements)
    for (const auto &[Name, Cell] : Row.Members)
      Shown(Cell);
}

} // namespace

TEST(ReportSchema, TopLevelSectionsWithAosAndOsr) {
  BuiltReport R = buildReport(/*WithAOS=*/true, /*WithOSR=*/true);
  ASSERT_TRUE(R.Doc.isObject());
  EXPECT_EQ(keysOf(R.Doc),
            (std::vector<std::string>{"workload", "size", "seed", "state",
                                      "cycles", "quality", "overhead", "aos",
                                      "osr", "flightRecorder"}));
}

TEST(ReportSchema, ConditionalSectionsAbsentWithoutAosAndOsr) {
  BuiltReport R = buildReport(/*WithAOS=*/false, /*WithOSR=*/false);
  ASSERT_TRUE(R.Doc.isObject());
  EXPECT_EQ(keysOf(R.Doc),
            (std::vector<std::string>{"workload", "size", "seed", "state",
                                      "cycles", "quality", "overhead",
                                      "flightRecorder"}));
}

TEST(ReportSchema, QualitySectionKeys) {
  BuiltReport R = buildReport(/*WithAOS=*/true, /*WithOSR=*/true);
  const json::JsonValue *Quality = R.Doc.find("quality");
  ASSERT_NE(Quality, nullptr);
  EXPECT_EQ(keysOf(*Quality),
            (std::vector<std::string>{"everyTicks", "phaseThresholdPct",
                                      "hotEdges", "phaseShifts", "windows"}));
  const json::JsonValue *Windows = Quality->find("windows");
  ASSERT_NE(Windows, nullptr);
  ASSERT_TRUE(Windows->isArray());
  ASSERT_FALSE(Windows->Elements.empty()) << "the phased run spans windows";
  EXPECT_EQ(keysOf(Windows->Elements.front()),
            (std::vector<std::string>{"window", "tick", "cycles", "edges",
                                      "weight", "overlapPct", "hotNew",
                                      "hotVanished", "meanConfidencePct",
                                      "phaseShift"}));
}

TEST(ReportSchema, OverheadSectionKeys) {
  BuiltReport R = buildReport(/*WithAOS=*/true, /*WithOSR=*/true);
  const json::JsonValue *Overhead = R.Doc.find("overhead");
  ASSERT_NE(Overhead, nullptr);
  EXPECT_EQ(keysOf(*Overhead),
            (std::vector<std::string>{"components", "totalCycles", "vmCycles",
                                      "totalFractionPct"}));
  const json::JsonValue *Components = Overhead->find("components");
  ASSERT_NE(Components, nullptr);
  ASSERT_TRUE(Components->isArray());
  ASSERT_EQ(Components->Elements.size(),
            std::size(aos::OverheadComponentNames));
  for (size_t I = 0; I != Components->Elements.size(); ++I) {
    EXPECT_EQ(keysOf(Components->Elements[I]),
              (std::vector<std::string>{"name", "cycles", "fractionPct"}));
    const json::JsonValue *Name = Components->Elements[I].find("name");
    ASSERT_NE(Name, nullptr);
    EXPECT_EQ(Name->Str, aos::OverheadComponentNames[I]);
  }
}

TEST(ReportSchema, AosAndDeoptSectionKeys) {
  BuiltReport R = buildReport(/*WithAOS=*/true, /*WithOSR=*/true);
  const json::JsonValue *Aos = R.Doc.find("aos");
  ASSERT_NE(Aos, nullptr);
  EXPECT_EQ(keysOf(*Aos),
            (std::vector<std::string>{"recompilations", "promotionsToL1",
                                      "promotionsToL2", "reoptimizations",
                                      "plansComputed", "phaseShiftReplans",
                                      "queue", "deopt"}));
  const json::JsonValue *Queue = Aos->find("queue");
  ASSERT_NE(Queue, nullptr);
  EXPECT_EQ(keysOf(*Queue),
            (std::vector<std::string>{"depth", "enqueued", "installs",
                                      "stale_drops", "coalesced", "dropped",
                                      "firstInstallCycle"}));
  const json::JsonValue *Deopt = Aos->find("deopt");
  ASSERT_NE(Deopt, nullptr);
  EXPECT_EQ(keysOf(*Deopt),
            (std::vector<std::string>{"guardChecks", "guardFailures", "count",
                                      "phaseShiftDeopts", "conservativePins",
                                      "staleRequestsDropped", "recompiles"}));
}

TEST(ReportSchema, WarmSectionPresentOnlyWhenWarmStarted) {
  // Without a warm-start profile there is no "warm" subsection at all —
  // a cold run's aos section is byte-compatible with pre-repository
  // releases (modulo the queue's firstInstallCycle key).
  BuiltReport Cold = buildReport(/*WithAOS=*/true, /*WithOSR=*/false);
  const json::JsonValue *ColdAos = Cold.Doc.find("aos");
  ASSERT_NE(ColdAos, nullptr);
  EXPECT_EQ(ColdAos->find("warm"), nullptr);

  BuiltReport Warm = buildReport(/*WithAOS=*/true, /*WithOSR=*/false,
                                 /*WithWarm=*/true);
  const json::JsonValue *Aos = Warm.Doc.find("aos");
  ASSERT_NE(Aos, nullptr);
  EXPECT_EQ(keysOf(*Aos),
            (std::vector<std::string>{"recompilations", "promotionsToL1",
                                      "promotionsToL2", "reoptimizations",
                                      "plansComputed", "phaseShiftReplans",
                                      "queue", "warm", "deopt"}));
  const json::JsonValue *WarmSec = Aos->find("warm");
  ASSERT_NE(WarmSec, nullptr);
  EXPECT_EQ(keysOf(*WarmSec),
            (std::vector<std::string>{"enqueued", "installs"}));
}

TEST(ReportSchema, RepoSectionKeysAndPlacement) {
  BuiltReport R = buildReport(/*WithAOS=*/true, /*WithOSR=*/true,
                              /*WithWarm=*/false, /*WithRepo=*/true);
  ASSERT_TRUE(R.Doc.isObject());
  EXPECT_EQ(keysOf(R.Doc),
            (std::vector<std::string>{"workload", "size", "seed", "state",
                                      "cycles", "quality", "overhead", "aos",
                                      "osr", "repo", "flightRecorder"}));
  const json::JsonValue *Repo = R.Doc.find("repo");
  ASSERT_NE(Repo, nullptr);
  EXPECT_EQ(keysOf(*Repo),
            (std::vector<std::string>{"dir", "loaded", "rejected", "runs",
                                      "committed", "diagnostic"}));
}

TEST(ReportSchema, OsrSectionKeys) {
  BuiltReport R = buildReport(/*WithAOS=*/true, /*WithOSR=*/true);
  const json::JsonValue *Osr = R.Doc.find("osr");
  ASSERT_NE(Osr, nullptr);
  EXPECT_EQ(keysOf(*Osr),
            (std::vector<std::string>{"entries", "exits",
                                      "graveyardInstructions",
                                      "graveyardReclaimedInstructions",
                                      "graveyardReclaims"}));
}

TEST(ReportSchema, FlightRecorderSectionKeys) {
  BuiltReport R = buildReport(/*WithAOS=*/true, /*WithOSR=*/true);
  const json::JsonValue *Recorder = R.Doc.find("flightRecorder");
  ASSERT_NE(Recorder, nullptr);
  EXPECT_EQ(keysOf(*Recorder),
            (std::vector<std::string>{"eventCapacity", "totalEvents",
                                      "perKind", "triggers", "dumps"}));
  const json::JsonValue *Dumps = Recorder->find("dumps");
  ASSERT_NE(Dumps, nullptr);
  ASSERT_TRUE(Dumps->isArray());
  ASSERT_FALSE(Dumps->Elements.empty()) << "end_of_run dump always present";
  EXPECT_EQ(keysOf(Dumps->Elements.front()),
            (std::vector<std::string>{"trigger", "cycles",
                                      "totalEventsAtDump", "windows",
                                      "events"}));
}

TEST(ReportSchema, TextViewShowsEverySectionAndScalar) {
  BuiltReport R = buildReport(/*WithAOS=*/true, /*WithOSR=*/true,
                              /*WithWarm=*/true, /*WithRepo=*/true);
  for (const char *Section : {"aos", "osr", "repo"})
    ASSERT_NE(R.Doc.find(Section), nullptr) << Section;
  ASSERT_NE(R.Doc.find("aos")->find("warm"), nullptr);
  expectRendered(json::writeText(R.Doc), "", R.Doc);
}
