//===- bench/ablation_generality.cpp - §8: CBS beyond call graphs ----------------===//
//
// Part of the CBSVM project.
//
// §8: "the sampling technique is fairly general. It could be applied
// any time it is desirable to use low overhead timer-based sampling to
// collect frequency-based profile data." This bench applies the same
// CounterBasedSampler state machine to *allocation* events and scores
// the sampled per-class allocation histogram against the heap's
// exhaustive counts, over the allocation-heavy workloads — same knee
// shape as the call-graph tables: a handful of samples per tick buys
// most of the accuracy at negligible cost.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace cbs;
using namespace cbs::bench;

int main(int Argc, char **Argv) {
  support::ArgParser Args(Argc, Argv);
  BenchReport Report(Args, "Ablation: generality (§8)");
  Args.finish();
  Report.printHeader("the same sampler over allocation events");

  Report.beginTable("alloc_sampling",
                    {"Benchmark", "samples/tick", "alloc acc", "ovh %"});

  for (const char *Name : {"jbb", "mtrt", "ipsixql", "kawa"}) {
    const wl::WorkloadInfo *W = wl::findWorkload(Name);
    bc::Program P = W->Build(wl::InputSize::Small, 1);

    // Unprofiled baseline for overhead.
    uint64_t BaseCycles;
    prof::AllocationProfile Truth;
    {
      vm::VMConfig Config =
          exp::jitOnlyConfig(P, vm::Personality::JikesRVM, 1);
      vm::VirtualMachine VM(P, Config);
      VM.run();
      BaseCycles = VM.stats().Cycles;
      Truth = VM.trueAllocationProfile();
    }

    for (uint32_t Samples : {1u, 4u, 16u, 64u}) {
      vm::VMConfig Config =
          exp::jitOnlyConfig(P, vm::Personality::JikesRVM, 1);
      Config.Profiler.ProfileAllocations = true;
      Config.Profiler.AllocCBS.Stride = 3;
      Config.Profiler.AllocCBS.SamplesPerTick = Samples;
      vm::VirtualMachine VM(P, Config);
      VM.run();
      double Acc = VM.allocationProfile().overlapWith(Truth);
      double Ovh = 100.0 *
                   (static_cast<double>(VM.stats().Cycles) - BaseCycles) /
                   BaseCycles;
      Report.addRow({Name, std::to_string(Samples),
                     TablePrinter::formatDouble(Acc, 0),
                     TablePrinter::formatDouble(Ovh, 2)});
    }
    Report.separator();
  }
  Report.print();
  std::printf("\nalloc acc = overlap of the sampled per-class allocation "
              "histogram with the\nheap's exhaustive counts. The "
              "frequency-profile recipe (timer arms a window,\ncounter "
              "strides through it) transfers unchanged.\n");
  return 0;
}
