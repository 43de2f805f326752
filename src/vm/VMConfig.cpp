//===- vm/VMConfig.cpp - Validated config construction ------------------------===//
//
// Part of the CBSVM project.
//
// VMConfig::fromArgs — the one place command-line options become a VM
// configuration. Every cbsvm subcommand (and any bench or test that
// takes the shared options) builds through here, so the defaults, the
// ranges, and the invalid-combination diagnostics cannot drift apart
// between callers.
//
//===----------------------------------------------------------------------===//

#include "vm/VMConfig.h"

#include "profiling/ProfilerRegistry.h"
#include "support/ArgParser.h"

#include <limits>

using namespace cbs;
using namespace cbs::vm;

VMConfig VMConfig::fromArgs(support::ArgParser &Args) {
  VMConfig Config;

  std::string Pers = Args.option("--personality", "jikes");
  if (Pers == "jikes")
    Config.Pers = Personality::JikesRVM;
  else if (Pers == "j9")
    Config.Pers = Personality::J9;
  else
    Args.fail("unknown personality '" + Pers + "' (jikes, j9)");

  Config.Seed = Args.optionUInt("--seed", 1, 0, UINT64_MAX);

  std::string ProfilerName = Args.option("--profiler", "cbs");
  const prof::ProfilerRegistry &Registry = prof::ProfilerRegistry::instance();
  const prof::ProfilerDescriptor *D = Registry.find(ProfilerName);
  if (!D)
    Args.fail("unknown profiler '" + ProfilerName +
              "' (available: " + Registry.names() + ")");

  // Sampling-geometry knobs only mean something when the chosen
  // profiler is driven by the sampling machinery; anything else is a
  // silent no-op the user almost certainly didn't intend. One check,
  // one message shape, for every caller.
  if (!D->Sampling)
    for (const char *Opt : {"--stride", "--samples", "--buffer-capacity"})
      if (Args.present(Opt))
        Args.fail(std::string(Opt) + " requires a sampling profiler "
                                     "(--profiler " +
                  D->Name + " does not sample)");

  D->Configure(Config.Profiler);
  Config.Profiler.CBS.Stride =
      static_cast<uint32_t>(Args.optionUInt("--stride", 3, 1, UINT32_MAX));
  Config.Profiler.CBS.SamplesPerTick = static_cast<uint32_t>(
      Args.optionUInt("--samples", 16, 1, UINT32_MAX));
  Config.Profiler.SampleBufferCapacity =
      Args.optionUInt("--buffer-capacity", 256, 1, 1 << 20);
  Config.Profiler.DecayEveryTicks = static_cast<uint32_t>(
      Args.optionUInt("--decay-ticks", 0, 0, UINT32_MAX));
  // The open interval DynamicCallGraph::decay requires, checked here so
  // a bad value is a diagnostic rather than an abort at the first decay.
  double Factor = Args.optionDouble("--decay-factor", 0.8,
                                    std::numeric_limits<double>::lowest(),
                                    std::numeric_limits<double>::max());
  if (!(Factor > 0 && Factor < 1))
    Args.fail("--decay-factor must be in (0, 1): 0 wipes the profile and 1 "
              "never decays it");
  Config.Profiler.DecayFactor = Factor;
  Config.EnableOSR = Args.flag("--osr");
  return Config;
}
