//===- tests/ProfileIOTest.cpp - profile serialization tests -------------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//

#include "fuzz/ProgramGenerator.h"

#include "profiling/OverlapMetric.h"
#include "profiling/ProfileCodec.h"
#include "support/Random.h"
#include "vm/VirtualMachine.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace cbs;
using namespace cbs::prof;

namespace {

DCGSnapshot sampleGraph() {
  DynamicCallGraph DCG;
  DCG.addSample({3, 7}, 100);
  DCG.addSample({1, 2}, 40);
  DCG.addSample({9, 0}, 1);
  return DCG.snapshot();
}

} // namespace

TEST(ProfileIO, RoundTripPreservesEverything) {
  DCGSnapshot DCG = sampleGraph();
  ProfileCodec::Decoded R = ProfileCodec::decode(ProfileCodec::encode(DCG));
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Graph->numEdges(), DCG.numEdges());
  EXPECT_EQ(R.Graph->totalWeight(), DCG.totalWeight());
  EXPECT_NEAR(overlap(*R.Graph, DCG), 100.0, 1e-9);
}

TEST(ProfileIO, SerializationIsDeterministic) {
  // Two graphs with the same content but different insertion orders
  // serialize identically.
  DynamicCallGraph A, B;
  A.addSample({1, 1}, 5);
  A.addSample({2, 2}, 7);
  B.addSample({2, 2}, 7);
  B.addSample({1, 1}, 5);
  EXPECT_EQ(ProfileCodec::encode(A.snapshot()),
            ProfileCodec::encode(B.snapshot()));
}

TEST(ProfileIO, EmptyGraphRoundTrips) {
  DCGSnapshot Empty;
  ProfileCodec::Decoded R = ProfileCodec::decode(ProfileCodec::encode(Empty));
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_TRUE(R.Graph->empty());
}

TEST(ProfileIO, RejectsBadMagic) {
  EXPECT_FALSE(ProfileCodec::decode("").ok());
  EXPECT_FALSE(ProfileCodec::decode("not-a-profile 1\n").ok());
  EXPECT_FALSE(ProfileCodec::decode("cbsvm-dcg 999\n").ok());
}

TEST(ProfileIO, RejectsMalformedLines) {
  EXPECT_FALSE(ProfileCodec::decode("cbsvm-dcg 1\n1 2\n").ok());
  EXPECT_FALSE(ProfileCodec::decode("cbsvm-dcg 1\n1 2 x\n").ok());
  EXPECT_FALSE(ProfileCodec::decode("cbsvm-dcg 1\n1 2 3 4\n").ok());
  EXPECT_FALSE(ProfileCodec::decode("cbsvm-dcg 1\n1 2 0\n").ok()) << "zero weight";
  EXPECT_FALSE(ProfileCodec::decode("cbsvm-dcg 1\n1 2 3\n1 2 4\n").ok())
      << "duplicate edge";
  // Two maximal weights would wrap the total to 2^64 - 2, and overlap
  // against a one-edge profile would then read 100% instead of 50%.
  EXPECT_EQ(ProfileCodec::decode("cbsvm-dcg 1\n1 2 18446744073709551615\n"
                                 "3 4 18446744073709551615\n")
                .Error,
            "line 3: total weight overflows 64 bits");
}

TEST(ProfileIO, RejectsOutOfRangeIds) {
  // Regression: ids are 32-bit, but the parser read them as uint64 and
  // silently truncated on the narrowing cast — an id of 2^32 + 5
  // became edge (5, ...) and corrupted the profile instead of failing.
  ProfileCodec::Decoded Site = ProfileCodec::decode("cbsvm-dcg 1\n4294967301 2 3\n");
  ASSERT_FALSE(Site.ok());
  EXPECT_NE(Site.Error.find("line 2"), std::string::npos) << Site.Error;
  EXPECT_NE(Site.Error.find("site id out of range"), std::string::npos)
      << Site.Error;

  ProfileCodec::Decoded Callee = ProfileCodec::decode("cbsvm-dcg 1\n1 4294967301 3\n");
  ASSERT_FALSE(Callee.ok());
  EXPECT_NE(Callee.Error.find("callee id out of range"), std::string::npos)
      << Callee.Error;
}

TEST(ProfileIO, RejectsInvalidSentinelAndNegativeIds) {
  // The all-ones value is the Invalid sentinel — never a legal edge.
  EXPECT_FALSE(ProfileCodec::decode("cbsvm-dcg 1\n4294967295 2 3\n").ok());
  EXPECT_FALSE(ProfileCodec::decode("cbsvm-dcg 1\n1 4294967295 3\n").ok());
  // A negative id wraps to a huge uint64 in istream extraction and must
  // hit the same range check, not truncate to a plausible small id.
  ProfileCodec::Decoded Neg = ProfileCodec::decode("cbsvm-dcg 1\n-1 2 3\n");
  ASSERT_FALSE(Neg.ok());
  EXPECT_NE(Neg.Error.find("out of range"), std::string::npos) << Neg.Error;
}

TEST(ProfileIO, AcceptsMaximalValidIds) {
  // One below the sentinels is still a legal id and must parse.
  ProfileCodec::Decoded R = ProfileCodec::decode("cbsvm-dcg 1\n4294967294 4294967294 3\n");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Graph->weight({4294967294u, 4294967294u}), 3u);
}

TEST(ProfileIO, SkipsCommentsAndBlankLines) {
  ProfileCodec::Decoded R =
      ProfileCodec::decode("cbsvm-dcg 1\n# hello\n\n1 2 3\n");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Graph->weight({1, 2}), 3u);
}

//===----------------------------------------------------------------------===//
// The v2 envelope: run metadata for the profile repository.
//===----------------------------------------------------------------------===//

TEST(ProfileCodecV2, RoundTripsMetadata) {
  ProfileMeta Meta;
  Meta.ProgramHash = 0xdeadbeefcafef00dull;
  Meta.Personality = "jikes";
  Meta.Runs = 7;
  Meta.Cycles = 123'456'789;
  std::string Text = ProfileCodec::encode(sampleGraph(), Meta);
  ProfileCodec::Decoded R = ProfileCodec::decode(Text);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Version, ProfileCodec::V2);
  EXPECT_EQ(R.Meta.ProgramHash, Meta.ProgramHash);
  EXPECT_EQ(R.Meta.Personality, Meta.Personality);
  EXPECT_EQ(R.Meta.Runs, Meta.Runs);
  EXPECT_EQ(R.Meta.Cycles, Meta.Cycles);
  EXPECT_EQ(R.Graph->totalWeight(), sampleGraph().totalWeight());
  // And the re-encode is byte-identical.
  EXPECT_EQ(ProfileCodec::encode(*R.Graph, R.Meta), Text);
}

TEST(ProfileCodecV2, V1ReadsWithDefaultMeta) {
  ProfileCodec::Decoded R = ProfileCodec::decode("cbsvm-dcg 1\n1 2 3\n");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Version, ProfileCodec::V1);
  EXPECT_EQ(R.Meta.ProgramHash, 0u);
  EXPECT_TRUE(R.Meta.Personality.empty());
  EXPECT_EQ(R.Meta.Runs, 0u);
  EXPECT_EQ(R.Meta.Cycles, 0u);
}

TEST(ProfileCodecV2, UnknownVersionHasExactMessage) {
  ProfileCodec::Decoded R = ProfileCodec::decode("cbsvm-dcg 3\n1 2 3\n");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Error, "unsupported version 3 (supported: 1, 2)");
}

TEST(ProfileCodecV2, RejectsMalformedMetadata) {
  // Every metadata error names its line and shape.
  ProfileCodec::Decoded Dup = ProfileCodec::decode(
      "cbsvm-dcg 2\n!runs 1\n!runs 2\n1 2 3\n");
  ASSERT_FALSE(Dup.ok());
  EXPECT_NE(Dup.Error.find("duplicate metadata key 'runs'"),
            std::string::npos)
      << Dup.Error;

  ProfileCodec::Decoded Unknown =
      ProfileCodec::decode("cbsvm-dcg 2\n!bogus 1\n1 2 3\n");
  ASSERT_FALSE(Unknown.ok());
  EXPECT_NE(Unknown.Error.find("unknown metadata key 'bogus'"),
            std::string::npos)
      << Unknown.Error;

  ProfileCodec::Decoded BadHash =
      ProfileCodec::decode("cbsvm-dcg 2\n!program xyz\n1 2 3\n");
  ASSERT_FALSE(BadHash.ok());
  EXPECT_NE(BadHash.Error.find("bad program hash 'xyz'"), std::string::npos)
      << BadHash.Error;

  // A v1 file must not smuggle metadata lines: '!' is not a comment
  // there, so it falls through to the edge parser and fails.
  EXPECT_FALSE(ProfileCodec::decode("cbsvm-dcg 1\n!runs 1\n1 2 3\n").ok());
}

TEST(ProfileCodecV2, LegacyEncodeIsV1ByteCompatible) {
  // encode(DCG) with no metadata still writes the v1 format, so every
  // pre-repository byte-equality check and golden fixture still holds.
  std::string Text = ProfileCodec::encode(sampleGraph());
  EXPECT_EQ(Text.rfind("cbsvm-dcg 1\n", 0), 0u) << Text;
  EXPECT_EQ(Text.find('!'), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Golden file: the on-disk text format is a contract. If either of
// these tests fails, the format changed — bump the version and write a
// migration, don't regenerate the fixture.
//===----------------------------------------------------------------------===//

namespace {

std::string readFixture(const char *Name) {
  std::ifstream In(std::string(CBSVM_FIXTURE_DIR) + "/" + Name);
  EXPECT_TRUE(In.good()) << "missing fixture " << Name;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

} // namespace

TEST(ProfileIO, GoldenFixtureMatchesSerializer) {
  DynamicCallGraph DCG;
  DCG.addSample({3, 7}, 100);
  DCG.addSample({1, 2}, 40);
  DCG.addSample({9, 0}, 1);
  DCG.addSample({4294967294u, 4294967294u}, 12);
  EXPECT_EQ(ProfileCodec::encode(DCG.snapshot()), readFixture("profile_v1.dcg"));
}

TEST(ProfileIO, GoldenFixtureRoundTripsByteExactly) {
  std::string Golden = readFixture("profile_v1.dcg");
  ProfileCodec::Decoded R = ProfileCodec::decode(Golden);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Graph->numEdges(), 4u);
  EXPECT_EQ(R.Graph->totalWeight(), 153u);
  EXPECT_EQ(ProfileCodec::encode(*R.Graph), Golden);
}

TEST(ProfileIO, ValidatesRealProfilesAgainstTheirProgram) {
  bc::Program P = fuzz::generateRandomProgram(5);
  vm::VMConfig Config;
  Config.Profiler.Kind = vm::ProfilerKind::Exhaustive;
  Config.Profiler.ChargeExhaustiveCounters = false;
  vm::VirtualMachine VM(P, Config);
  VM.run();
  EXPECT_EQ(validateAgainst(VM.profile(), P), "");
}

TEST(ProfileIO, ValidateCatchesForeignEdges) {
  bc::Program P = fuzz::generateRandomProgram(6);
  DynamicCallGraph Bogus;
  Bogus.addSample({static_cast<bc::SiteId>(P.numSites() + 5), 0});
  EXPECT_NE(validateAgainst(Bogus.snapshot(), P), "");

  DynamicCallGraph WrongCallee;
  WrongCallee.addSample({0, static_cast<bc::MethodId>(P.numMethods() + 3)});
  EXPECT_NE(validateAgainst(WrongCallee.snapshot(), P), "");
}

TEST(ProfileIO, ValidateCatchesImpossibleDispatch) {
  // A static call site attributed to a different callee.
  bc::Program P = fuzz::generateRandomProgram(7);
  bc::SiteId StaticSite = bc::InvalidSiteId;
  bc::MethodId RealCallee = bc::InvalidMethodId;
  for (bc::SiteId S = 0; S != P.numSites(); ++S) {
    const bc::SiteInfo &Info = P.site(S);
    const bc::Instruction &I = P.method(Info.Caller).Code[Info.PC];
    if (I.Op == bc::Opcode::InvokeStatic) {
      StaticSite = S;
      RealCallee = static_cast<bc::MethodId>(I.A);
      break;
    }
  }
  ASSERT_NE(StaticSite, bc::InvalidSiteId);
  DynamicCallGraph Wrong;
  bc::MethodId Other = RealCallee == 0 ? 1 : 0;
  Wrong.addSample({StaticSite, Other});
  EXPECT_NE(validateAgainst(Wrong.snapshot(), P), "");
}

TEST(ProfileIO, CollectedProfileSurvivesRoundTripAndValidates) {
  bc::Program P = fuzz::generateRandomProgram(8);
  vm::VMConfig Config;
  Config.Profiler.Kind = vm::ProfilerKind::CBS;
  Config.Profiler.CBS.SamplesPerTick = 64;
  Config.TimerPeriodCycles = 2'000;
  vm::VirtualMachine VM(P, Config);
  VM.run();
  ProfileCodec::Decoded R = ProfileCodec::decode(ProfileCodec::encode(VM.profile()));
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(validateAgainst(*R.Graph, P), "");
  EXPECT_NEAR(overlap(*R.Graph, VM.profile()), 100.0, 1e-9);
}
