//===- tests/RandomProgramTest.cpp - fuzzer-driven property tests --------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
//
// Whole-system property tests over randomly generated programs: the
// generator must produce verifier-clean, terminating, deterministic
// programs, and every built-in differential oracle must hold on
// arbitrary call structures — including the multi-threaded, phase-shift
// shapes the default knobs don't reach.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Oracle.h"
#include "fuzz/ProgramGenerator.h"

#include "bytecode/Verifier.h"
#include "profiling/OverlapMetric.h"
#include "vm/VirtualMachine.h"

#include <gtest/gtest.h>

using namespace cbs;
using namespace cbs::bc;

class RandomProgramTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomProgramTest, GeneratedProgramsVerify) {
  Program P = fuzz::generateRandomProgram(GetParam());
  VerifyResult V = verifyProgram(P);
  EXPECT_TRUE(V.ok()) << V.str();
}

TEST_P(RandomProgramTest, GeneratedProgramsTerminateDeterministically) {
  Program P = fuzz::generateRandomProgram(GetParam());
  auto Run = [&] {
    vm::VMConfig Config;
    Config.MaxCycles = 200'000'000;
    vm::VirtualMachine VM(P, Config);
    EXPECT_EQ(VM.run(), vm::RunState::Finished) << VM.trapMessage();
    return std::pair(VM.output(), VM.stats().Cycles);
  };
  auto A = Run(), B = Run();
  EXPECT_EQ(A, B);
  EXPECT_FALSE(A.first.empty()) << "main always prints";
}

TEST_P(RandomProgramTest, SameSeedSameProgram) {
  Program A = fuzz::generateRandomProgram(GetParam());
  Program B = fuzz::generateRandomProgram(GetParam());
  ASSERT_EQ(A.numMethods(), B.numMethods());
  for (MethodId M = 0; M != A.numMethods(); ++M) {
    ASSERT_EQ(A.method(M).Code.size(), B.method(M).Code.size());
    for (size_t PC = 0; PC != A.method(M).Code.size(); ++PC) {
      EXPECT_EQ(A.method(M).Code[PC].Op, B.method(M).Code[PC].Op);
      EXPECT_EQ(A.method(M).Code[PC].A, B.method(M).Code[PC].A);
    }
  }
}

// The oracle registry is the productized form of the old hand-written
// property tests (profilers don't perturb output; sampled ⊆ exhaustive;
// profiles round-trip; job counts don't matter) — every built-in invariant
// must hold on every seed.
TEST_P(RandomProgramTest, BuiltinOraclesHold) {
  Program P = fuzz::generateRandomProgram(GetParam());
  fuzz::OracleRegistry Registry = fuzz::OracleRegistry::builtin();
  fuzz::ProgramRuns Runs(P, GetParam());
  for (const auto &O : Registry.all())
    EXPECT_EQ(O->check({P, GetParam(), Runs}), "") << "oracle " << O->id();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramTest,
                         ::testing::Range<uint64_t>(1, 51));

class ThreadedProgramTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ThreadedProgramTest, ThreadedShapesVerifyAndHold) {
  fuzz::ProgramGenerator Gen(fuzz::ShapeConfig::threaded());
  Program P = Gen.generate(GetParam());
  VerifyResult V = verifyProgram(P);
  ASSERT_TRUE(V.ok()) << V.str();
  fuzz::OracleRegistry Registry = fuzz::OracleRegistry::builtin();
  fuzz::ProgramRuns Runs(P, GetParam());
  for (const auto &O : Registry.all())
    EXPECT_EQ(O->check({P, GetParam(), Runs}), "") << "oracle " << O->id();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThreadedProgramTest,
                         ::testing::Range<uint64_t>(1, 26));

class LongLoopProgramTest : public ::testing::TestWithParam<uint64_t> {};

// The long-loop shape keeps frames inside loops long enough for
// installs and invalidations to land mid-loop — the programs where
// on-stack replacement actually fires. Verify the shape and hold the
// OSR invariant on every seed; the full oracle set would mostly re-run
// what RandomProgramTest already covers, only slower.
TEST_P(LongLoopProgramTest, LongLoopShapesVerifyAndOsrHolds) {
  fuzz::ProgramGenerator Gen(fuzz::ShapeConfig::longLoops());
  Program P = Gen.generate(GetParam());
  VerifyResult V = verifyProgram(P);
  ASSERT_TRUE(V.ok()) << V.str();
  fuzz::OracleRegistry Registry = fuzz::OracleRegistry::builtin();
  const fuzz::Oracle *Osr = Registry.find("osr-stability");
  ASSERT_NE(Osr, nullptr);
  fuzz::ProgramRuns Runs(P, GetParam());
  EXPECT_EQ(Osr->check({P, GetParam(), Runs}), "");
}

INSTANTIATE_TEST_SUITE_P(Seeds, LongLoopProgramTest,
                         ::testing::Range<uint64_t>(1, 16));
