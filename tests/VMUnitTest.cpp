//===- tests/VMUnitTest.cpp - VM component unit tests --------------------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
//
// Unit coverage for the smaller VM components: the heap, the code
// cache, the cost model, and the sample buffer / organizer coupling.
//
//===----------------------------------------------------------------------===//

#include "bytecode/Builder.h"
#include "profiling/SampleBuffer.h"
#include "vm/CodeCache.h"
#include "vm/Heap.h"
#include "vm/Thread.h"

#include <gtest/gtest.h>

using namespace cbs;
using namespace cbs::bc;

namespace {

Program tinyProgram() {
  ProgramBuilder PB;
  MethodId Leaf = PB.declareStatic("leaf", {}, /*HasResult=*/true);
  {
    MethodBuilder MB = PB.defineMethod(Leaf);
    MB.work(5).iconst(1).iret();
    MB.finish();
  }
  MethodId Main = PB.declareStatic("main");
  {
    MethodBuilder MB = PB.defineMethod(Main);
    MB.invokeStatic(Leaf).print();
    MB.finish();
  }
  return PB.finish(Main);
}

} // namespace

//===----------------------------------------------------------------------===//
// Heap
//===----------------------------------------------------------------------===//

TEST(Heap, AllocatesZeroedObjects) {
  ProgramBuilder PB;
  ClassId C = PB.addClass("C", InvalidClassId, 3);
  MethodId Main = PB.declareStatic("main");
  {
    MethodBuilder MB = PB.defineMethod(Main);
    MB.finish();
  }
  Program P = PB.finish(Main);

  vm::Heap H;
  vm::Ref R = H.allocate(P.hierarchy().classOf(C));
  EXPECT_TRUE(H.validRef(R));
  EXPECT_EQ(H.classOf(R), C);
  EXPECT_EQ(H.numFields(R), 3u);
  for (uint32_t F = 0; F != 3; ++F)
    EXPECT_EQ(H.getField(R, F), 0);
}

TEST(Heap, FieldsAreIndependentAcrossObjects) {
  ProgramBuilder PB;
  ClassId C = PB.addClass("C", InvalidClassId, 2);
  MethodId Main = PB.declareStatic("main");
  {
    MethodBuilder MB = PB.defineMethod(Main);
    MB.finish();
  }
  Program P = PB.finish(Main);

  vm::Heap H;
  vm::Ref A = H.allocate(P.hierarchy().classOf(C));
  vm::Ref B = H.allocate(P.hierarchy().classOf(C));
  H.putField(A, 0, 11);
  H.putField(B, 0, 22);
  EXPECT_EQ(H.getField(A, 0), 11);
  EXPECT_EQ(H.getField(B, 0), 22);
}

TEST(Heap, NullAndOutOfRangeRefsAreInvalid) {
  vm::Heap H;
  EXPECT_FALSE(H.validRef(0));
  EXPECT_FALSE(H.validRef(1));
  EXPECT_FALSE(H.validRef(100));
}

TEST(Heap, TracksBytesAndReset) {
  ProgramBuilder PB;
  ClassId C = PB.addClass("C", InvalidClassId, 4);
  MethodId Main = PB.declareStatic("main");
  {
    MethodBuilder MB = PB.defineMethod(Main);
    MB.finish();
  }
  Program P = PB.finish(Main);

  vm::Heap H;
  H.allocate(P.hierarchy().classOf(C));
  H.allocate(P.hierarchy().classOf(C));
  // 16 header + 8 * 4 fields = 48 bytes each.
  EXPECT_EQ(H.bytesAllocated(), 96u);
  EXPECT_EQ(H.numObjects(), 2u);
  H.reset();
  EXPECT_EQ(H.numObjects(), 0u);
  EXPECT_FALSE(H.validRef(1));
}

//===----------------------------------------------------------------------===//
// CodeCache
//===----------------------------------------------------------------------===//

TEST(CodeCache, BaselineCompileCopiesOriginal) {
  Program P = tinyProgram();
  vm::CompiledMethod CM = vm::CodeCache::compileBaseline(P, 0, /*Level=*/0);
  EXPECT_EQ(CM.Code.size(), P.method(0).Code.size());
  EXPECT_EQ(CM.ScaleQ8, 256u);
  EXPECT_GT(CM.CompileCostCycles, 0u);
}

TEST(CodeCache, LevelsScaleExecutionAndCost) {
  Program P = tinyProgram();
  vm::CompiledMethod L0 = vm::CodeCache::compileBaseline(P, 0, 0);
  vm::CompiledMethod L1 = vm::CodeCache::compileBaseline(P, 0, 1);
  vm::CompiledMethod L2 = vm::CodeCache::compileBaseline(P, 0, 2);
  EXPECT_GT(L0.ScaleQ8, L1.ScaleQ8);
  EXPECT_GT(L1.ScaleQ8, L2.ScaleQ8);
  EXPECT_LT(L0.CompileCostCycles, L1.CompileCostCycles);
  EXPECT_LT(L1.CompileCostCycles, L2.CompileCostCycles);
}

TEST(CodeCache, InstallRetiresButKeepsOldVersionsAlive) {
  Program P = tinyProgram();
  vm::CodeCache Cache(P);
  EXPECT_EQ(Cache.active(0), nullptr);
  EXPECT_EQ(Cache.activeLevel(0), -1);

  vm::InstalledVersion *V0 =
      Cache.install(vm::CodeCache::compileBaseline(P, 0, 0));
  EXPECT_EQ(Cache.activeLevel(0), 0);
  Cache.pinFrame(V0); // a frame is executing V0
  vm::InstalledVersion *V2 =
      Cache.install(vm::CodeCache::compileBaseline(P, 0, 2));
  EXPECT_EQ(Cache.activeLevel(0), 2);
  EXPECT_NE(V0, V2);
  // The retired version's storage must still be readable: a pinning
  // frame keeps executing it until it returns or OSR-transfers off.
  EXPECT_EQ(V0->Body.Level, 0);
  EXPECT_FALSE(V0->Body.Code.empty());
  EXPECT_EQ(Cache.numCompiles(), 2u);
  EXPECT_EQ(Cache.numRecompiles(), 1u);
}

TEST(CodeCache, ScaledCostUsesQ8Fixedpoint) {
  vm::CompiledMethod CM;
  CM.ScaleQ8 = 128; // 0.5x
  EXPECT_EQ(CM.scaledCost(100), 50u);
  CM.ScaleQ8 = 256; // 1.0x
  EXPECT_EQ(CM.scaledCost(100), 100u);
}

//===----------------------------------------------------------------------===//
// CostModel
//===----------------------------------------------------------------------===//

TEST(CostModel, WorkChargesItsOperand) {
  EXPECT_EQ(instructionCycles(Instruction(Opcode::Work, 123)), 123u);
}

TEST(CostModel, VirtualCallsCostMoreThanStatic) {
  EXPECT_GT(instructionCycles(Instruction(Opcode::InvokeVirtual, 0, 1)),
            instructionCycles(Instruction(Opcode::InvokeStatic, 0, 0)));
}

TEST(CostModel, EveryOpcodeHasPositiveCost) {
  for (int Op = 0; Op <= static_cast<int>(Opcode::Spawn); ++Op) {
    Instruction I(static_cast<Opcode>(Op), /*A=*/1, /*B=*/0);
    EXPECT_GT(instructionCycles(I), 0u) << opcodeName(static_cast<Opcode>(Op));
  }
}

//===----------------------------------------------------------------------===//
// SampleBuffer (listener/organizer decoupling)
//===----------------------------------------------------------------------===//

TEST(SampleBuffer, SignalsFullAtCapacity) {
  prof::SampleBuffer Buffer(3);
  EXPECT_FALSE(Buffer.append({1, 1}));
  EXPECT_FALSE(Buffer.append({2, 2}));
  EXPECT_TRUE(Buffer.append({3, 3}));
  EXPECT_EQ(Buffer.pendingCount(), 3u);
}

TEST(SampleBuffer, FlushFoldsIntoRepository) {
  prof::SampleBuffer Buffer(8);
  Buffer.append({1, 1});
  Buffer.append({1, 1});
  Buffer.append({2, 2});
  prof::DynamicCallGraph Repo;
  Buffer.flushInto(Repo);
  prof::DCGSnapshot S = Repo.snapshot();
  EXPECT_EQ(S.weight({1, 1}), 2u);
  EXPECT_EQ(S.weight({2, 2}), 1u);
  EXPECT_EQ(Buffer.pendingCount(), 0u);
  EXPECT_EQ(Buffer.flushCount(), 1u);
}

TEST(SampleBuffer, FlushIsIdempotentWhenEmpty) {
  prof::SampleBuffer Buffer(4);
  prof::DynamicCallGraph Repo;
  Buffer.flushInto(Repo);
  Buffer.flushInto(Repo);
  EXPECT_TRUE(Repo.empty());
  EXPECT_EQ(Buffer.flushCount(), 0u) << "empty flushes are not counted";
}

TEST(SampleBuffer, OverflowDropsAndCounts) {
  prof::SampleBuffer Buffer(2);
  EXPECT_FALSE(Buffer.append({1, 1}));
  EXPECT_TRUE(Buffer.append({2, 2})); // full: caller should flush now
  // Caller ignored the signal: further appends drop, and are counted.
  EXPECT_TRUE(Buffer.append({3, 3}));
  EXPECT_TRUE(Buffer.append({4, 4}));
  EXPECT_EQ(Buffer.pendingCount(), 2u);
  EXPECT_EQ(Buffer.droppedCount(), 2u);
  prof::DynamicCallGraph Repo;
  Buffer.flushInto(Repo);
  EXPECT_EQ(Repo.totalWeight(), 2u) << "dropped samples never land";
  // The delta accessor hands out each drop exactly once.
  EXPECT_EQ(Buffer.takeDroppedDelta(), 2u);
  EXPECT_EQ(Buffer.takeDroppedDelta(), 0u);
  EXPECT_EQ(Buffer.droppedCount(), 2u) << "cumulative count is preserved";
}

TEST(SampleBuffer, DrainedBufferAcceptsNewSamples) {
  prof::SampleBuffer Buffer(2);
  prof::DynamicCallGraph Repo;
  Buffer.append({1, 1});
  Buffer.append({1, 1});
  Buffer.flushInto(Repo);
  EXPECT_FALSE(Buffer.append({1, 1})) << "capacity is available again";
  Buffer.flushInto(Repo);
  EXPECT_EQ(Repo.snapshot().weight({1, 1}), 3u);
  EXPECT_EQ(Buffer.droppedCount(), 0u);
}

TEST(SampleBuffer, CapacityOneSignalsFullOnEveryAppend) {
  prof::SampleBuffer Buffer(1);
  prof::DynamicCallGraph Repo;
  // An owner that flushes whenever append() returns true never drops,
  // even at the degenerate capacity.
  for (int I = 0; I != 5; ++I) {
    EXPECT_TRUE(Buffer.append({1, 1}));
    Buffer.flushInto(Repo);
  }
  EXPECT_EQ(Buffer.droppedCount(), 0u);
  EXPECT_EQ(Buffer.flushCount(), 5u);
  EXPECT_EQ(Repo.snapshot().weight({1, 1}), 5u);
}

TEST(SampleBufferDeathTest, CapacityZeroIsAConfigurationError) {
  // A zero-capacity buffer would drop every sample while returning
  // true from append (telling the owner to busy-flush an always-empty
  // buffer); constructing one is a fatal configuration error.
  EXPECT_DEATH({ prof::SampleBuffer Buffer(0); },
               "SampleBuffer capacity must be at least 1");
}

TEST(SampleBuffer, AccountingAtTheExactCapacityBoundary) {
  prof::SampleBuffer Buffer(3);
  EXPECT_FALSE(Buffer.append({1, 1}));
  EXPECT_FALSE(Buffer.append({1, 1}));
  EXPECT_TRUE(Buffer.append({1, 1})) << "the filling append signals full";
  EXPECT_EQ(Buffer.pendingCount(), 3u);
  EXPECT_EQ(Buffer.droppedCount(), 0u)
      << "the append that fills the buffer is stored, not dropped";
  // One past the boundary: dropped, and the delta accessor sees exactly
  // that one even when interleaved with a flush.
  EXPECT_TRUE(Buffer.append({2, 2}));
  prof::DynamicCallGraph Repo;
  Buffer.flushInto(Repo);
  EXPECT_EQ(Buffer.takeDroppedDelta(), 1u);
  EXPECT_EQ(Repo.snapshot().weight({1, 1}), 3u);
  EXPECT_EQ(Repo.snapshot().weight({2, 2}), 0u);
  // Refill to the boundary again: the cumulative count keeps growing
  // but the delta restarts from the last report.
  Buffer.append({1, 1});
  Buffer.append({1, 1});
  Buffer.append({1, 1});
  Buffer.append({3, 3});
  EXPECT_EQ(Buffer.droppedCount(), 2u);
  EXPECT_EQ(Buffer.takeDroppedDelta(), 1u);
}

//===----------------------------------------------------------------------===//
// Thread::topEdge (depth-0/1 stacks and non-call suspension points)
//===----------------------------------------------------------------------===//

namespace {

vm::InstalledVersion madeMethod(bc::MethodId Id,
                                std::vector<bc::Instruction> Code) {
  return vm::InstalledVersion(vm::CompiledMethod::build(
      {.Id = Id, .Code = std::move(Code)}));
}

} // namespace

TEST(StackWalker, EmptyStackHasNoEdgeAndNoPath) {
  vm::Thread T;
  EXPECT_EQ(T.topEdge(), std::nullopt);
}

TEST(StackWalker, EntryFrameAloneYieldsNoEdge) {
  vm::InstalledVersion Entry =
      madeMethod(7, {bc::Instruction(bc::Opcode::Nop)});
  vm::Thread T;
  T.Frames.push_back({&Entry, 0, 0});

  EXPECT_EQ(T.topEdge(), std::nullopt)
      << "a depth-1 stack has no caller to attribute a sample to";
}

TEST(StackWalker, TopEdgeReadsTheCallersSuspendedSite) {
  vm::InstalledVersion Caller = madeMethod(
      3, {bc::Instruction(bc::Opcode::InvokeStatic, 4, 0, /*Site=*/11)});
  vm::InstalledVersion Callee =
      madeMethod(4, {bc::Instruction(bc::Opcode::Nop)});
  vm::Thread T;
  T.Frames.push_back({&Caller, 0, 0});
  T.Frames.push_back({&Callee, 0, 0});

  std::optional<prof::CallEdge> Edge = T.topEdge();
  ASSERT_TRUE(Edge.has_value());
  EXPECT_EQ(Edge->Site, 11u);
  EXPECT_EQ(Edge->Callee, 4u);
}

TEST(StackWalker, NonCallSuspensionYieldsNoEdge) {
  // A caller frame suspended at a non-call instruction (e.g. mid-walk
  // during a GC-point sample) must not fabricate an edge.
  vm::InstalledVersion Caller =
      madeMethod(3, {bc::Instruction(bc::Opcode::Nop)});
  vm::InstalledVersion Callee =
      madeMethod(4, {bc::Instruction(bc::Opcode::Nop)});
  vm::Thread T;
  T.Frames.push_back({&Caller, 0, 0});
  T.Frames.push_back({&Callee, 0, 0});
  EXPECT_EQ(T.topEdge(), std::nullopt);
}
