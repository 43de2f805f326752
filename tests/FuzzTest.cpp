//===- tests/FuzzTest.cpp - differential fuzzing subsystem tests ---------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
//
// Unit tests for the src/fuzz subsystem: spec building and JSON round
// trips, shape knobs, the delta-debugging reducer (via a deliberately
// broken oracle with a planted violation), replayable artifacts, and
// the campaign driver's determinism across job counts.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Artifact.h"
#include "fuzz/Fuzzer.h"
#include "fuzz/Oracle.h"
#include "fuzz/ProgramGenerator.h"
#include "fuzz/Reducer.h"

#include "bytecode/Verifier.h"
#include "support/Json.h"
#include "telemetry/MetricRegistry.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace cbs;
using namespace cbs::fuzz;

namespace {

const Oracle &brokenOracle(OracleRegistry &Registry) {
  addBrokenOracleForTesting(Registry);
  const Oracle *O = Registry.find("broken");
  EXPECT_NE(O, nullptr);
  return *O;
}

} // namespace

//===----------------------------------------------------------------------===//
// Generator and spec
//===----------------------------------------------------------------------===//

TEST(ProgramSpec, GeneratedSpecsValidateAndBuild) {
  ProgramGenerator Gen;
  for (uint64_t Seed = 1; Seed <= 25; ++Seed) {
    ProgramSpec Spec = Gen.makeSpec(Seed);
    EXPECT_EQ(validateSpec(Spec), "") << "seed " << Seed;
    bc::Program P = buildProgram(Spec);
    bc::VerifyResult V = bc::verifyProgram(P);
    EXPECT_TRUE(V.ok()) << "seed " << Seed << ": " << V.str();
  }
}

TEST(ProgramSpec, JsonRoundTripIsExact) {
  ProgramGenerator Gen(ShapeConfig::threaded());
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    ProgramSpec Spec = Gen.makeSpec(Seed);
    json::JsonWriter W;
    writeSpec(Spec, W);
    std::string First = W.take();

    json::JsonParseResult Parsed = json::parseJson(First);
    ASSERT_TRUE(Parsed.ok()) << Parsed.Error;
    std::string Error;
    ProgramSpec Back = parseSpec(*Parsed.Value, Error);
    ASSERT_EQ(Error, "");

    json::JsonWriter W2;
    writeSpec(Back, W2);
    EXPECT_EQ(First, W2.take()) << "seed " << Seed;
  }
}

TEST(ProgramSpec, ParseRejectsDanglingReferences) {
  ProgramSpec Spec = ProgramGenerator().makeSpec(3);
  json::JsonWriter W;
  writeSpec(Spec, W);
  // Corrupt a callee index beyond the method count.
  json::JsonParseResult Parsed = json::parseJson(W.take());
  ASSERT_TRUE(Parsed.ok());
  json::JsonValue Doc = *Parsed.Value;
  for (auto &[Key, Value] : Doc.Members)
    if (Key == "mainCalls" && !Value.Elements.empty())
      for (auto &[CKey, CValue] : Value.Elements[0].Members)
        if (CKey == "callee") {
          CValue.NumVal = 1000;
          CValue.Str = "1000";
        }
  std::string Error;
  parseSpec(Doc, Error);
  EXPECT_NE(Error, "");
}

TEST(ProgramGenerator, SameSeedSameSpecAcrossInstances) {
  ProgramGenerator A, B;
  for (uint64_t Seed : {1ull, 7ull, 42ull}) {
    json::JsonWriter WA, WB;
    writeSpec(A.makeSpec(Seed), WA);
    writeSpec(B.makeSpec(Seed), WB);
    EXPECT_EQ(WA.take(), WB.take());
  }
}

TEST(ProgramGenerator, ShapeKnobsBoundTheSpec) {
  ShapeConfig Shape;
  Shape.MinMethods = Shape.MaxMethods = 2;
  Shape.MinSteps = 1;
  Shape.MaxSteps = 3;
  Shape.MinVirtualImpls = Shape.MaxVirtualImpls = 1;
  Shape.MinMainCalls = Shape.MaxMainCalls = 2;
  Shape.MaxWorkerThreads = 2;
  ProgramGenerator Gen(Shape);
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    ProgramSpec Spec = Gen.makeSpec(Seed);
    EXPECT_EQ(Spec.Methods.size(), 2u);
    EXPECT_EQ(Spec.Impls.size(), 1u);
    EXPECT_EQ(Spec.MainCalls.size(), 2u);
    EXPECT_LE(Spec.Workers.size(), 2u);
    for (const MethodSpec &M : Spec.Methods)
      EXPECT_LE(M.Steps.size(), 3u);
  }
}

TEST(ProgramGenerator, ShapeJsonRoundTrip) {
  ShapeConfig Shape = ShapeConfig::threaded();
  Shape.MaxMethods = 11;
  json::JsonWriter W;
  writeShape(Shape, W);
  json::JsonParseResult Parsed = json::parseJson(W.take());
  ASSERT_TRUE(Parsed.ok());
  std::string Error;
  ShapeConfig Back = parseShape(*Parsed.Value, Error);
  EXPECT_EQ(Error, "");
  EXPECT_EQ(Back.MaxMethods, 11u);
  EXPECT_EQ(Back.MaxWorkerThreads, Shape.MaxWorkerThreads);
  EXPECT_EQ(Back.MaxCallRepeat, Shape.MaxCallRepeat);
}

//===----------------------------------------------------------------------===//
// Shared runs
//===----------------------------------------------------------------------===//

TEST(ProgramRuns, AdaptiveRunsKeepTheirLatency) {
  // Campaign logs print only violations and campaign digests only count
  // checks, so adaptive runs that silently lost their latency would
  // pass both. On this long-loops program the three latencies the AOS
  // oracles use take three different sample counts.
  bc::Program P =
      buildProgram(ProgramGenerator(ShapeConfig::longLoops()).makeSpec(27));
  ProgramRuns Runs(P, 27);
  uint64_t Latency0 = Runs.adaptive(0, false).Samples;
  uint64_t Latency1 = Runs.adaptive(1, false).Samples;
  uint64_t Latency8 = Runs.adaptive(8, false).Samples;
  EXPECT_EQ(Latency0, 76u);
  EXPECT_EQ(Latency1, 84u);
  EXPECT_EQ(Latency8, 96u);
  EXPECT_TRUE(Latency0 != Latency1 || Latency1 != Latency8);
}

//===----------------------------------------------------------------------===//
// Reducer
//===----------------------------------------------------------------------===//

// The planted violation: the broken oracle rejects any program that
// prints. Reduction must deliver a strictly smaller spec that still
// fails, and the fixpoint for this oracle is the minimal printing
// program (one impl, one method, one main call).
TEST(Reducer, PlantedViolationShrinksToMinimum) {
  OracleRegistry Registry;
  const Oracle &Broken = brokenOracle(Registry);

  ProgramSpec Spec = ProgramGenerator().makeSpec(1);
  bc::Program P = buildProgram(Spec);
  ProgramRuns Runs(P, 1);
  std::string Message = Broken.check({P, 1, Runs});
  ASSERT_NE(Message, "") << "the broken oracle must reject any printing "
                            "program";

  ReduceResult R = reduceSpec(Spec, Broken, 1, Message);
  EXPECT_LT(R.Spec.atomCount(), Spec.atomCount())
      << "reduction must strictly shrink the planted violation";
  EXPECT_EQ(R.Spec.atomCount(), 3u)
      << "fixpoint is impl + method + main call";
  EXPECT_GT(R.ChecksUsed, 0u);
  EXPECT_GT(R.Accepted, 0u);

  // The minimized program still fails the same oracle.
  bc::Program Reduced = buildProgram(R.Spec);
  EXPECT_TRUE(bc::verifyProgram(Reduced).ok());
  ProgramRuns ReducedRuns(Reduced, 1);
  EXPECT_NE(Broken.check({Reduced, 1, ReducedRuns}), "");
  EXPECT_EQ(R.Message, Broken.check({Reduced, 1, ReducedRuns}));
}

TEST(Reducer, PassingProgramIsLeftAlone) {
  // Against a built-in oracle that the program satisfies, reduceSpec's
  // precondition is violated; emulate the caller's guard instead: no
  // reduction is attempted when check() passes.
  OracleRegistry Registry = OracleRegistry::builtin();
  ProgramSpec Spec = ProgramGenerator().makeSpec(2);
  bc::Program P = buildProgram(Spec);
  ProgramRuns Runs(P, 2);
  EXPECT_EQ(Registry.all()[0]->check({P, 2, Runs}), "");
}

TEST(Reducer, BudgetBoundsChecks) {
  OracleRegistry Registry;
  const Oracle &Broken = brokenOracle(Registry);
  ProgramSpec Spec = ProgramGenerator().makeSpec(5);
  ReduceOptions Options;
  Options.MaxChecks = 7;
  ReduceResult R = reduceSpec(Spec, Broken, 5, "planted", Options);
  EXPECT_LE(R.ChecksUsed, 7u);
}

//===----------------------------------------------------------------------===//
// Artifacts and replay
//===----------------------------------------------------------------------===//

TEST(Artifact, RoundTripPreservesEverything) {
  Artifact A;
  A.Seed = 99;
  A.Shape = ShapeConfig::threaded();
  A.OracleId = "output-stability";
  A.Message = "some \"quoted\" divergence";
  A.Spec = ProgramGenerator().makeSpec(99);

  std::string Text = writeArtifact(A);
  std::string Error;
  Artifact B = parseArtifact(Text, Error);
  ASSERT_EQ(Error, "");
  EXPECT_EQ(B.Seed, 99u);
  EXPECT_EQ(B.OracleId, "output-stability");
  EXPECT_EQ(B.Message, A.Message);
  EXPECT_EQ(B.Shape.MaxWorkerThreads, A.Shape.MaxWorkerThreads);
  EXPECT_EQ(writeArtifact(B), Text) << "artifact serialization is stable";
}

TEST(Artifact, ParseRejectsGarbage) {
  std::string Error;
  parseArtifact("not json", Error);
  EXPECT_NE(Error, "");
  parseArtifact("{\"version\": 2}", Error);
  EXPECT_NE(Error, "") << "unknown versions are rejected";
  parseArtifact("{\"version\": 1, \"oracle\": \"x\"}", Error);
  EXPECT_NE(Error, "") << "a spec is required";
}

TEST(Artifact, ReplayReproducesAReducedViolation) {
  OracleRegistry Registry;
  const Oracle &Broken = brokenOracle(Registry);

  ProgramSpec Spec = ProgramGenerator().makeSpec(4);
  bc::Program P = buildProgram(Spec);
  ProgramRuns Runs(P, 4);
  std::string Message = Broken.check({P, 4, Runs});
  ASSERT_NE(Message, "");
  ReduceResult R = reduceSpec(Spec, Broken, 4, Message);

  Artifact A;
  A.Seed = 4;
  A.OracleId = "broken";
  A.Message = R.Message;
  A.Spec = R.Spec;

  // Through the serialized form, as `cbsvm fuzz --replay` would.
  std::string Error;
  Artifact Loaded = parseArtifact(writeArtifact(A), Error);
  ASSERT_EQ(Error, "");
  std::string Replayed = replayArtifact(Loaded, Registry, Error);
  EXPECT_EQ(Error, "");
  EXPECT_EQ(Replayed, R.Message) << "replay reproduces the exact violation";
}

TEST(Artifact, ReplayRejectsUnknownOracle) {
  Artifact A;
  A.OracleId = "no-such-oracle";
  A.Spec = ProgramGenerator().makeSpec(1);
  OracleRegistry Registry = OracleRegistry::builtin();
  std::string Error;
  replayArtifact(A, Registry, Error);
  EXPECT_NE(Error, "");
}

TEST(Artifact, ReplaysThroughEachAosOracle) {
  // Artifacts name their oracle by id, so every AOS stability oracle
  // must resolve and re-check a serialized program cleanly.
  OracleRegistry Registry = OracleRegistry::builtin();
  for (const char *Id : {"async-compile-stability", "deopt-storm-stability",
                         "osr-stability", "warm-start-stability"}) {
    Artifact A;
    A.Seed = 3;
    A.Shape = ShapeConfig::longLoops();
    A.OracleId = Id;
    A.Spec = ProgramGenerator(A.Shape).makeSpec(3);
    std::string Error;
    Artifact Loaded = parseArtifact(writeArtifact(A), Error);
    ASSERT_EQ(Error, "") << Id;
    EXPECT_EQ(replayArtifact(Loaded, Registry, Error), "") << Id;
    EXPECT_EQ(Error, "") << Id;
  }
}

//===----------------------------------------------------------------------===//
// Campaign driver
//===----------------------------------------------------------------------===//

TEST(Fuzzer, BuiltinOracleIdsArePinned) {
  // --oracle filters and saved artifacts resolve by these ids, and the
  // campaign checks oracles in this order.
  OracleRegistry Registry = OracleRegistry::builtin();
  std::vector<std::string> Ids;
  for (const std::unique_ptr<Oracle> &O : Registry.all())
    Ids.push_back(O->id());
  EXPECT_EQ(Ids, (std::vector<std::string>{
                     "output-stability", "cbs-subset", "profile-roundtrip",
                     "shard-determinism", "async-compile-stability",
                     "deopt-storm-stability", "osr-stability",
                     "warm-start-stability"}));
}

TEST(Fuzzer, CleanCampaignOnBuiltinOracles) {
  FuzzOptions Options;
  Options.Runs = 10;
  Options.SeedBase = 1;
  tel::MetricRegistry Metrics;
  std::ostringstream Log;
  FuzzReport Report =
      runFuzz(Options, OracleRegistry::builtin(), &Metrics, &Log);
  EXPECT_TRUE(Report.clean()) << Log.str();
  EXPECT_EQ(Report.Runs, 10u);
  // 10 runs x the 8 builtin oracles.
  EXPECT_EQ(Report.OracleChecks, 80u);
  EXPECT_EQ(Metrics.counter("fuzz.runs").Value, 10u);
  EXPECT_EQ(Metrics.counter("fuzz.oracle_checks").Value, 80u);
  EXPECT_EQ(Metrics.counter("fuzz.violations").Value, 0u);
  // 30 VM runs per program: the baseline, the exhaustive run, the three
  // CBS grid runs and the adaptive runs each run once however many
  // oracles read them (37 per program if each oracle ran its own).
  EXPECT_EQ(Metrics.counter("fuzz.vm_runs").Value, 300u);
}

TEST(Fuzzer, ShardDeterminismCampaignIsJobsInvariant) {
  // The oracle's one jobs-4 runner is shared by every campaign worker,
  // which take it in turns; its log and run count must not depend on
  // how many workers there are.
  OracleRegistry Registry = OracleRegistry::builtin();
  auto Campaign = [&](unsigned Jobs) {
    FuzzOptions Options;
    Options.Runs = 16;
    Options.SeedBase = 7;
    Options.Jobs = Jobs;
    Options.OracleFilter = "shard-determinism";
    tel::MetricRegistry Metrics;
    std::ostringstream Log;
    FuzzReport Report = runFuzz(Options, Registry, &Metrics, &Log);
    EXPECT_TRUE(Report.clean()) << Log.str();
    EXPECT_EQ(Metrics.counter("fuzz.vm_runs").Value, 16u * 6);
    return Log.str();
  };
  std::string Serial = Campaign(1);
  EXPECT_EQ(Serial, Campaign(4));
  EXPECT_EQ(Serial, Campaign(1)) << "a second campaign on the same runner";
}

TEST(Fuzzer, JobsDoNotChangeTheReport) {
  auto Campaign = [](unsigned Jobs) {
    FuzzOptions Options;
    Options.Runs = 12;
    Options.SeedBase = 50;
    Options.Jobs = Jobs;
    OracleRegistry Registry;
    addBrokenOracleForTesting(Registry);
    std::ostringstream Log;
    FuzzReport Report = runFuzz(Options, Registry, nullptr, &Log);
    return std::pair(Log.str(), Report.Violations.size());
  };
  auto Serial = Campaign(1);
  auto Parallel = Campaign(4);
  EXPECT_EQ(Serial.first, Parallel.first)
      << "log output must be byte-identical across job counts";
  EXPECT_EQ(Serial.second, Parallel.second);
}

TEST(Fuzzer, ViolationsCarryReplayableArtifacts) {
  FuzzOptions Options;
  Options.Runs = 3;
  Options.SeedBase = 1;
  Options.OracleFilter = "broken";
  OracleRegistry Registry;
  addBrokenOracleForTesting(Registry);
  tel::MetricRegistry Metrics;
  FuzzReport Report = runFuzz(Options, Registry, &Metrics, nullptr);
  ASSERT_EQ(Report.Violations.size(), 3u);
  EXPECT_EQ(Metrics.counter("fuzz.violations").Value, 3u);
  EXPECT_GT(Metrics.counter("fuzz.reduce_checks").Value, 0u);

  for (const Violation &V : Report.Violations) {
    EXPECT_LT(V.ReducedAtoms, V.OriginalAtoms);
    std::string Error;
    Artifact A = parseArtifact(V.ArtifactJson, Error);
    ASSERT_EQ(Error, "") << V.ArtifactJson;
    std::string Replayed = replayArtifact(A, Registry, Error);
    EXPECT_EQ(Error, "");
    EXPECT_EQ(Replayed, V.Message);
  }
}

TEST(Fuzzer, OracleFilterSelectsOne) {
  FuzzOptions Options;
  Options.Runs = 2;
  Options.OracleFilter = "profile-roundtrip";
  FuzzReport Report = runFuzz(Options, OracleRegistry::builtin());
  EXPECT_EQ(Report.OracleChecks, 2u) << "one oracle per run";
}
