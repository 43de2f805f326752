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
// on any rename, removal, or accidental demotion of a section. The text
// views of `cbsvm report` and `cbsvm stats` are json::writeText of
// their documents, and the TextShows tests hold them to it: every
// section path titles a text section and every object scalar sits on a
// "key  lexeme" row, on documents built through the CLI's own wiring.
//
//===----------------------------------------------------------------------===//

#include "aos/AdaptiveSystem.h"
#include "aos/ReportJson.h"
#include "experiments/Experiments.h"
#include "experiments/RunDriver.h"
#include "opt/InlineOracle.h"
#include "profiling/DynamicCallGraph.h"
#include "support/Json.h"
#include "telemetry/FlightRecorder.h"
#include "vm/VirtualMachine.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

using namespace cbs;
namespace fs = std::filesystem;

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

/// The lexeme json::writeText prints for \p V: a scalar as the JSON
/// document spells it (strings escaped but unquoted), a container as
/// its element count.
std::string lexemeOf(const json::JsonValue &V) {
  switch (V.K) {
  case json::JsonValue::Kind::Null:
    return "null";
  case json::JsonValue::Kind::Bool:
    return V.BoolVal ? "true" : "false";
  case json::JsonValue::Kind::Number:
    return V.Str;
  case json::JsonValue::Kind::String:
    return json::escape(V.Str);
  case json::JsonValue::Kind::Array:
  case json::JsonValue::Kind::Object:
    return std::to_string(V.Elements.size() + V.Members.size());
  }
  return {};
}

/// True if some line of \p Lines is a "key  lexeme" row: \p Key, then
/// whitespace, then \p Lexeme, then nothing but whitespace.
bool hasRow(const std::vector<std::string> &Lines, const std::string &Key,
            const std::string &Lexeme) {
  for (const std::string &Line : Lines) {
    if (Line.compare(0, Key.size(), Key) != 0 || Line.size() == Key.size() ||
        !std::isspace(static_cast<unsigned char>(Line[Key.size()])))
      continue;
    size_t Start = Line.find_first_not_of(" \t", Key.size());
    size_t End = Line.find_last_not_of(" \t");
    std::string Rest =
        Start == std::string::npos ? "" : Line.substr(Start, End + 1 - Start);
    if (Rest == Lexeme)
      return true;
  }
  return false;
}

/// Expects \p Text (json::writeText of a whole document, split into
/// \p Lines) to show \p V at \p Path: a non-empty container at a
/// section path titles its own section (a "path:" line), every scalar
/// member of an object sits on a "key  lexeme" row, and every cell of a
/// table (an array's elements, or their members) appears as its lexeme.
void expectRendered(const std::string &Text,
                    const std::vector<std::string> &Lines,
                    const std::string &Path, const json::JsonValue &V) {
  if (V.Members.empty() && V.Elements.empty())
    return;
  if (!Path.empty()) {
    EXPECT_NE(std::find(Lines.begin(), Lines.end(), Path + ":"), Lines.end())
        << "section " << Path;
  }
  for (const auto &[Name, Member] : V.Members) {
    std::string MemberPath = Path.empty() ? Name : Path + "." + Name;
    if (Member.isObject() || Member.isArray()) {
      expectRendered(Text, Lines, MemberPath, Member);
      continue;
    }
    EXPECT_TRUE(hasRow(Lines, Name, lexemeOf(Member)))
        << "row " << MemberPath << " = " << lexemeOf(Member);
  }
  for (const json::JsonValue &Element : V.Elements) {
    std::vector<const json::JsonValue *> Cells;
    if (Element.isObject())
      for (const auto &[Name, Cell] : Element.Members)
        Cells.push_back(&Cell);
    else
      Cells.push_back(&Element);
    for (const json::JsonValue *Cell : Cells)
      EXPECT_NE(Text.find(lexemeOf(*Cell)), std::string::npos)
          << "cell of " << Path << ": " << lexemeOf(*Cell);
  }
}

/// Expects json::writeText of the document \p Json to show every
/// section and scalar of it (expectRendered).
void expectTextShowsJson(const std::string &Json) {
  json::JsonParseResult R = json::parseJson(Json);
  ASSERT_TRUE(R.ok()) << R.Error;
  std::string Text = json::writeText(*R.Value);
  std::vector<std::string> Lines;
  std::istringstream In(Text);
  for (std::string Line; std::getline(In, Line);)
    Lines.push_back(Line);
  expectRendered(Text, Lines, "", *R.Value);
}

/// The document `cbsvm <Command> <Args...>` prints, built through the
/// CLI's own wiring (exp::parseRunSetup, exp::DriverRun): the metrics
/// for `stats`, the self-observability report for `report`.
std::string cliDocument(const std::string &Command,
                           std::vector<std::string> Args) {
  support::ArgParser Parser(std::move(Args));
  exp::RunSetup S = exp::parseRunSetup(Parser);
  std::optional<tel::FlightRecorder> Recorder;
  if (Command == "report")
    Recorder.emplace(exp::parseReportOptions(Parser, S));
  Parser.finish();
  if (Recorder)
    S.Config.Recorder = &*Recorder;
  exp::DriverRun Run(S);
  EXPECT_EQ(Run.run(), vm::RunState::Finished);
  return Command == "report" ? aos::buildReportJson(Run.reportInputs())
                             : Run.vm().metrics().toJson();
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
  expectTextShowsJson(json::writeJson(R.Doc));
}

TEST(ReportSchema, StatsTextShowsEverySectionAndScalar) {
  expectTextShowsJson(cliDocument("stats", {"jess", "--aos"}));
}

TEST(ReportSchema, WarmReportTextShowsEverySectionAndScalar) {
  // A cold run seeds the repository, so the checked run is a warm
  // start and its report has every section.
  fs::path Repo = fs::path(testing::TempDir()) /
                  ("report-text-" + std::to_string(getpid()));
  fs::remove_all(Repo);
  std::vector<std::string> Args = {"phased", "--aos", "--osr",
                                   "--deopt-threshold", "60",
                                   "--profile-repo", Repo.string()};
  cliDocument("report", Args);
  std::string Json = cliDocument("report", Args);
  fs::remove_all(Repo);
  json::JsonParseResult R = json::parseJson(Json);
  ASSERT_TRUE(R.ok()) << R.Error;
  for (const char *Section : {"aos", "osr", "repo"})
    ASSERT_NE(R.Value->find(Section), nullptr) << Section;
  ASSERT_NE(R.Value->find("aos")->find("warm"), nullptr);
  expectTextShowsJson(Json);
}
