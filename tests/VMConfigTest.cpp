//===- tests/VMConfigTest.cpp - config construction API tests ------------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
//
// VMConfig::fromArgs is the single validated entry from command-line
// options to a VM configuration, and ProfilerRegistry is the single
// table of profilers behind it. These tests pin the defaults, the
// rejection paths, and — deliberately, with exact string equality —
// the shape of the invalid-combination diagnostic, so no caller can
// grow its own variant of either.
//
//===----------------------------------------------------------------------===//

#include "vm/VMConfig.h"

#include "profiling/ProfilerRegistry.h"
#include "support/ArgParser.h"

#include <gtest/gtest.h>

#include <stdexcept>

using namespace cbs;

namespace {

/// Parser whose errors surface as exceptions (the default handler
/// exits), carrying the diagnostic text for shape assertions.
support::ArgParser parser(std::vector<std::string> Arguments) {
  support::ArgParser P(std::move(Arguments));
  P.setErrorHandler(
      [](const std::string &M) { throw std::runtime_error(M); });
  return P;
}

/// The diagnostic fromArgs produces for \p Arguments, or "" when it
/// accepts them.
std::string rejection(std::vector<std::string> Arguments) {
  support::ArgParser P = parser(std::move(Arguments));
  try {
    vm::VMConfig::fromArgs(P);
  } catch (const std::runtime_error &E) {
    return E.what();
  }
  return "";
}

} // namespace

TEST(VMConfigFromArgs, DefaultsMatchThePaperConfiguration) {
  support::ArgParser P = parser({});
  vm::VMConfig Config = vm::VMConfig::fromArgs(P);
  P.finish();

  EXPECT_EQ(Config.Pers, vm::Personality::JikesRVM);
  EXPECT_EQ(Config.Seed, 1u);
  EXPECT_EQ(Config.Profiler.Kind, vm::ProfilerKind::CBS);
  EXPECT_EQ(Config.Profiler.CBS.Stride, 3u);
  EXPECT_EQ(Config.Profiler.CBS.SamplesPerTick, 16u);
  EXPECT_EQ(Config.Profiler.SampleBufferCapacity, 256u);
  EXPECT_EQ(Config.Profiler.DecayEveryTicks, 0u);
}

TEST(VMConfigFromArgs, ParsesSharedOptions) {
  support::ArgParser P = parser({"--personality", "j9", "--seed", "7",
                                 "--profiler", "timer", "--decay-ticks", "8",
                                 "--decay-factor", "0.5"});
  vm::VMConfig Config = vm::VMConfig::fromArgs(P);
  P.finish();

  EXPECT_EQ(Config.Pers, vm::Personality::J9);
  EXPECT_EQ(Config.Seed, 7u);
  EXPECT_EQ(Config.Profiler.Kind, vm::ProfilerKind::Timer);
  EXPECT_EQ(Config.Profiler.DecayEveryTicks, 8u);
  EXPECT_DOUBLE_EQ(Config.Profiler.DecayFactor, 0.5);
}

TEST(VMConfigFromArgs, RejectsUnknownPersonality) {
  EXPECT_EQ(rejection({"--personality", "hotspot"}),
            "unknown personality 'hotspot' (jikes, j9)");
}

TEST(VMConfigFromArgs, RejectsUnknownProfilerWithTheFullMenu) {
  EXPECT_EQ(rejection({"--profiler", "perf"}),
            "unknown profiler 'perf' (available: " +
                prof::ProfilerRegistry::instance().names() + ")");
}

TEST(VMConfigFromArgs, SamplingKnobsRequireASamplingProfiler) {
  // The exact message shape: name the offending option, then the fix.
  EXPECT_EQ(rejection({"--profiler", "patching", "--buffer-capacity", "64"}),
            "--buffer-capacity requires a sampling profiler "
            "(--profiler patching does not sample)");
  EXPECT_EQ(rejection({"--profiler", "none", "--stride", "2"}),
            "--stride requires a sampling profiler "
            "(--profiler none does not sample)");
  EXPECT_EQ(rejection({"--profiler", "exhaustive", "--samples", "8"}),
            "--samples requires a sampling profiler "
            "(--profiler exhaustive does not sample)");
}

TEST(VMConfigFromArgs, SamplingKnobsAcceptedBySamplingProfilers) {
  for (const char *Name : {"timer", "cbs"}) {
    support::ArgParser P = parser({"--profiler", Name, "--stride", "2",
                                   "--samples", "8", "--buffer-capacity",
                                   "64"});
    vm::VMConfig Config = vm::VMConfig::fromArgs(P);
    P.finish();
    EXPECT_EQ(Config.Profiler.CBS.Stride, 2u) << Name;
    EXPECT_EQ(Config.Profiler.CBS.SamplesPerTick, 8u) << Name;
    EXPECT_EQ(Config.Profiler.SampleBufferCapacity, 64u) << Name;
  }
}

TEST(VMConfigFromArgs, DecayFactorMustBeInTheOpenUnitInterval) {
  // decay() aborts on 0 and 1, so argument parsing must reject them
  // with a diagnostic instead of letting the run die at its first decay.
  for (const char *Bad : {"0", "1", "1.5"})
    EXPECT_EQ(rejection({"--decay-ticks", "2", "--decay-factor", Bad}),
              "--decay-factor must be in (0, 1): 0 wipes the profile and 1 "
              "never decays it")
        << Bad;
  EXPECT_EQ(rejection({"--decay-ticks", "2", "--decay-factor", "0.5"}), "");
}

TEST(ProfilerRegistry, EveryKindHasExactlyOneEntry) {
  const prof::ProfilerRegistry &R = prof::ProfilerRegistry::instance();
  EXPECT_EQ(R.all().size(), 5u);
  for (const prof::ProfilerDescriptor &D : R.all()) {
    EXPECT_EQ(R.find(D.Name), &D);
    EXPECT_EQ(R.find(D.Kind), &D);
    EXPECT_NE(D.Summary, nullptr);
  }
  EXPECT_EQ(R.find("no-such-profiler"), nullptr);
}

TEST(ProfilerRegistry, SamplingFlagMatchesTheMachinery) {
  const prof::ProfilerRegistry &R = prof::ProfilerRegistry::instance();
  EXPECT_TRUE(R.find("timer")->Sampling);
  EXPECT_TRUE(R.find("cbs")->Sampling);
  EXPECT_FALSE(R.find("none")->Sampling);
  EXPECT_FALSE(R.find("exhaustive")->Sampling);
  EXPECT_FALSE(R.find("patching")->Sampling);
}

TEST(ProfilerRegistry, ConfigureAppliesKindSpecificPolicy) {
  const prof::ProfilerRegistry &R = prof::ProfilerRegistry::instance();

  vm::ProfilerOptions Opts;
  ASSERT_TRUE(R.configure("exhaustive", Opts));
  EXPECT_EQ(Opts.Kind, vm::ProfilerKind::Exhaustive);
  // The reference profile is free; the charged instrumented-VM variant
  // is an explicit ablation, not the registry default.
  EXPECT_FALSE(Opts.ChargeExhaustiveCounters);

  vm::ProfilerOptions CbsOpts;
  ASSERT_TRUE(R.configure("cbs", CbsOpts));
  EXPECT_EQ(CbsOpts.Kind, vm::ProfilerKind::CBS);

  vm::ProfilerOptions Untouched;
  EXPECT_FALSE(R.configure("bogus", Untouched));
  EXPECT_EQ(Untouched.Kind, vm::ProfilerKind::None);
}

TEST(ProfilerRegistry, NamesListsThePresentationOrder) {
  EXPECT_EQ(prof::ProfilerRegistry::instance().names(),
            "none, exhaustive, timer, cbs, patching");
}
