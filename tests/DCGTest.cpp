//===- tests/DCGTest.cpp - DCG and overlap metric tests ------------------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//

#include "profiling/DynamicCallGraph.h"
#include "profiling/OverlapMetric.h"
#include "support/Random.h"

#include <gtest/gtest.h>

using namespace cbs;
using namespace cbs::prof;

namespace {

CallEdge edge(uint32_t Site, uint32_t Callee) { return {Site, Callee}; }

DynamicCallGraph randomDCG(RandomEngine &RNG, size_t NumEdges,
                           uint64_t MaxWeight) {
  DynamicCallGraph DCG;
  for (size_t I = 0; I != NumEdges; ++I)
    DCG.addSample(edge(static_cast<uint32_t>(RNG.nextBelow(64)),
                       static_cast<uint32_t>(RNG.nextBelow(32))),
                  RNG.nextBelow(MaxWeight) + 1);
  return DCG;
}

} // namespace

//===----------------------------------------------------------------------===//
// DynamicCallGraph (write side) read through snapshots
//===----------------------------------------------------------------------===//

TEST(DCG, AccumulatesWeights) {
  DynamicCallGraph DCG;
  DCG.addSample(edge(1, 2));
  DCG.addSample(edge(1, 2), 4);
  DCG.addSample(edge(1, 3), 5);
  DCGSnapshot S = DCG.snapshot();
  EXPECT_EQ(S.weight(edge(1, 2)), 5u);
  EXPECT_EQ(S.weight(edge(1, 3)), 5u);
  EXPECT_EQ(S.weight(edge(9, 9)), 0u);
  EXPECT_EQ(S.totalWeight(), 10u);
  EXPECT_EQ(S.numEdges(), 2u);
  EXPECT_EQ(DCG.totalWeight(), 10u);
  EXPECT_EQ(DCG.numEdges(), 2u);
}

TEST(DCG, FractionNormalizes) {
  DynamicCallGraph DCG;
  DCG.addSample(edge(0, 1), 3);
  DCG.addSample(edge(0, 2), 1);
  DCGSnapshot S = DCG.snapshot();
  EXPECT_DOUBLE_EQ(S.fraction(edge(0, 1)), 0.75);
  EXPECT_DOUBLE_EQ(S.fraction(edge(0, 2)), 0.25);
  EXPECT_DOUBLE_EQ(S.fraction(edge(5, 5)), 0.0);
}

TEST(DCG, EmptyFractionIsZero) {
  DynamicCallGraph DCG;
  EXPECT_DOUBLE_EQ(DCG.snapshot().fraction(edge(0, 1)), 0.0);
  EXPECT_TRUE(DCG.empty());
  EXPECT_TRUE(DCG.snapshot().empty());
}

TEST(DCG, SiteDistributionSortedHeaviestFirst) {
  DynamicCallGraph DCG;
  DCG.addSample(edge(7, 1), 10);
  DCG.addSample(edge(7, 2), 30);
  DCG.addSample(edge(7, 3), 20);
  DCG.addSample(edge(8, 1), 99); // Different site: excluded.
  auto Dist = DCG.snapshot().siteDistribution(7);
  ASSERT_EQ(Dist.size(), 3u);
  EXPECT_EQ(Dist[0].first.Callee, 2u);
  EXPECT_EQ(Dist[1].first.Callee, 3u);
  EXPECT_EQ(Dist[2].first.Callee, 1u);
}

TEST(DCG, MergeAddsWeights) {
  DynamicCallGraph A, B;
  A.addSample(edge(1, 1), 2);
  B.addSample(edge(1, 1), 3);
  B.addSample(edge(2, 2), 4);
  A.merge(B);
  DCGSnapshot S = A.snapshot();
  EXPECT_EQ(S.weight(edge(1, 1)), 5u);
  EXPECT_EQ(S.weight(edge(2, 2)), 4u);
  EXPECT_EQ(S.totalWeight(), 9u);
}

TEST(DCG, SelfMergeDoublesEveryWeight) {
  // Regression: merging a graph into itself used to iterate the edge
  // map while inserting into it — a rehash mid-merge corrupted the
  // weights. Self-merge is now doubling in place.
  DynamicCallGraph DCG;
  for (uint32_t I = 0; I != 100; ++I)
    DCG.addSample(edge(I, I % 7), I + 1);
  size_t EdgesBefore = DCG.numEdges();
  uint64_t TotalBefore = DCG.totalWeight();
  DCG.merge(DCG);
  EXPECT_EQ(DCG.numEdges(), EdgesBefore);
  EXPECT_EQ(DCG.totalWeight(), TotalBefore * 2);
  DCGSnapshot S = DCG.snapshot();
  for (uint32_t I = 0; I != 100; ++I)
    EXPECT_EQ(S.weight(edge(I, I % 7)), uint64_t(I + 1) * 2);
}

TEST(DCG, SelfMergeMatchesMergingACopy) {
  RandomEngine RNG(3);
  DynamicCallGraph A = randomDCG(RNG, 200, 1000);
  DynamicCallGraph B = A;    // independent copy
  DynamicCallGraph Copy = A; // merge source snapshot
  A.merge(A);
  B.merge(Copy);
  EXPECT_EQ(A.totalWeight(), B.totalWeight());
  EXPECT_EQ(A.numEdges(), B.numEdges());
  EXPECT_EQ(A.snapshot().sortedEdges(), B.snapshot().sortedEdges());
}

TEST(DCG, DecayHalvesAndDropsZeroEdges) {
  DynamicCallGraph DCG;
  DCG.addSample(edge(0, 0), 100);
  DCG.addSample(edge(1, 1), 1); // rounds to zero at factor 0.5
  DCG.decay(0.5);
  DCGSnapshot S = DCG.snapshot();
  EXPECT_EQ(S.weight(edge(0, 0)), 50u);
  EXPECT_EQ(S.weight(edge(1, 1)), 0u);
  EXPECT_EQ(S.numEdges(), 1u);
  EXPECT_EQ(S.totalWeight(), 50u);
}

TEST(DCG, ZeroCountSampleLeavesNoResidentEdge) {
  // Regression: addSample with Count == 0 used to create a resident
  // weight-0 map entry that survived until the next decay truncation,
  // bloating every snapshot, serialized profile, and overlap
  // computation in between.
  DynamicCallGraph DCG;
  DCG.addSample(edge(0, 0), 0);
  EXPECT_EQ(DCG.numEdges(), 0u);
  EXPECT_TRUE(DCG.snapshot().empty());

  DCG.addSample(edge(0, 0), 5);
  DCG.addSample(edge(1, 1), 0);
  EXPECT_EQ(DCG.numEdges(), 1u);
  EXPECT_EQ(DCG.totalWeight(), 5u);
  EXPECT_EQ(DCG.snapshot().numEdges(), 1u);
}

TEST(DCG, DecayToZeroShrinksSnapshotEdgeCount) {
  // Long-run hygiene: edges whose weight truncates to zero must leave
  // the map entirely, so the snapshot edge count shrinks with every
  // decay instead of accumulating dead entries.
  DynamicCallGraph DCG;
  for (uint32_t I = 0; I != 16; ++I)
    DCG.addSample(edge(I, I), 1);
  DCG.addSample(edge(100, 100), 1'000'000);
  EXPECT_EQ(DCG.snapshot().numEdges(), 17u);

  DCG.decay(0.5); // every weight-1 edge truncates to 0
  DCGSnapshot S = DCG.snapshot();
  EXPECT_EQ(S.numEdges(), 1u) << "dead edges must not stay resident";
  EXPECT_EQ(DCG.numEdges(), 1u);
  EXPECT_EQ(S.weight(edge(100, 100)), 500'000u);

  // Decay all the way to an empty repository.
  for (int I = 0; I != 40 && DCG.numEdges() != 0; ++I)
    DCG.decay(0.5);
  EXPECT_EQ(DCG.numEdges(), 0u);
  EXPECT_TRUE(DCG.snapshot().empty());
}

TEST(DCG, DecayImmediatelyFollowedBySnapshotIsFresh) {
  // Regression guard for the snapshot epoch cache: a snapshot taken in
  // the same instant as a decay (the AOS organizer does exactly this —
  // decay on the tick, then publish) must see the decayed weights, not
  // a cached pre-decay snapshot.
  DynamicCallGraph DCG;
  DCG.addSample(edge(0, 0), 64);
  DCG.addSample(edge(2, 3), 7);
  DCGSnapshot Before = DCG.snapshot(); // primes the epoch cache
  uint64_t EpochBefore = DCG.epoch();
  DCG.decay(0.5);
  EXPECT_GT(DCG.epoch(), EpochBefore) << "decay must bump the epoch";

  DCGSnapshot After = DCG.snapshot();
  EXPECT_EQ(After.weight(edge(0, 0)), 32u);
  EXPECT_EQ(After.weight(edge(2, 3)), 3u);
  EXPECT_EQ(Before.weight(edge(0, 0)), 64u)
      << "the earlier snapshot stays frozen";

  // Back-to-back decay + snapshot cycles keep agreeing (no stale
  // cache reuse across repeated same-tick sequences).
  DCG.decay(0.5);
  EXPECT_EQ(DCG.snapshot().weight(edge(0, 0)), 16u);
  DCG.decay(0.5);
  EXPECT_EQ(DCG.snapshot().weight(edge(0, 0)), 8u);
  EXPECT_EQ(DCG.snapshot().weight(edge(2, 3)), 0u)
      << "7 -> 3 -> 1 -> 0: the edge decays away entirely";
}

TEST(DCGDeathTest, DecayRejectsFactorAtOrAboveOne) {
  DynamicCallGraph DCG;
  DCG.addSample(edge(0, 0), 10);
  EXPECT_DEATH(DCG.decay(1.0), "factor must be in \\(0, 1\\)");
  EXPECT_DEATH(DCG.decay(2.5), "factor must be in \\(0, 1\\)");
}

TEST(DCGDeathTest, DecayRejectsFactorAtOrBelowZero) {
  DynamicCallGraph DCG;
  DCG.addSample(edge(0, 0), 10);
  EXPECT_DEATH(DCG.decay(0.0), "factor must be in \\(0, 1\\)");
  EXPECT_DEATH(DCG.decay(-0.5), "factor must be in \\(0, 1\\)");
}

TEST(DCG, ClearResets) {
  DynamicCallGraph DCG;
  DCG.addSample(edge(1, 1), 5);
  DCG.clear();
  EXPECT_TRUE(DCG.empty());
  EXPECT_EQ(DCG.totalWeight(), 0u);
  EXPECT_TRUE(DCG.snapshot().empty());
}

TEST(DCG, AddBatchMatchesPerSampleAdds) {
  std::vector<CallEdge> Batch;
  for (uint32_t I = 0; I != 300; ++I)
    Batch.push_back(edge(I % 17, I % 5));
  DynamicCallGraph ByBatch, BySample;
  ByBatch.addBatch(Batch.data(), Batch.size());
  for (CallEdge E : Batch)
    BySample.addSample(E);
  EXPECT_EQ(ByBatch.snapshot().sortedEdges(), BySample.snapshot().sortedEdges());
  EXPECT_EQ(ByBatch.totalWeight(), BySample.totalWeight());
}

TEST(DCG, CopyAndMergeKeepEveryWeight) {
  DynamicCallGraph A;
  for (uint32_t I = 0; I != 64; ++I)
    A.addSample(edge(I, I % 3), I + 1);
  DynamicCallGraph B = A; // a copy has the same weights and epoch
  EXPECT_EQ(A.snapshot().sortedEdges(), B.snapshot().sortedEdges());
  EXPECT_EQ(A.epoch(), B.epoch());

  DynamicCallGraph C;
  C.addSample(edge(0, 0), 5);
  C.merge(A);
  EXPECT_EQ(C.totalWeight(), A.totalWeight() + 5);
  EXPECT_EQ(C.snapshot().weight(edge(0, 0)), 6u);
}

//===----------------------------------------------------------------------===//
// Snapshots
//===----------------------------------------------------------------------===//

TEST(DCGSnapshotTest, ImmutableUnderLaterMutation) {
  DynamicCallGraph DCG;
  DCG.addSample(edge(1, 1), 10);
  DCGSnapshot Before = DCG.snapshot();
  DCG.addSample(edge(1, 1), 90);
  DCG.addSample(edge(2, 2), 7);
  EXPECT_EQ(Before.weight(edge(1, 1)), 10u);
  EXPECT_EQ(Before.numEdges(), 1u);
  EXPECT_EQ(Before.totalWeight(), 10u);
  DCGSnapshot After = DCG.snapshot();
  EXPECT_EQ(After.weight(edge(1, 1)), 100u);
  EXPECT_EQ(After.numEdges(), 2u);
}

TEST(DCGSnapshotTest, EpochCacheReusesUnchangedSnapshot) {
  DynamicCallGraph DCG;
  DCG.addSample(edge(1, 1), 3);
  DCGSnapshot A = DCG.snapshot();
  DCGSnapshot B = DCG.snapshot();
  // No mutation in between: both snapshots share one materialization.
  EXPECT_EQ(&A.sortedEdges(), &B.sortedEdges());
  EXPECT_EQ(A.epoch(), B.epoch());
  DCG.addSample(edge(1, 1));
  DCGSnapshot C = DCG.snapshot();
  EXPECT_NE(&A.sortedEdges(), &C.sortedEdges());
  EXPECT_GT(C.epoch(), A.epoch());
}

TEST(DCGSnapshotTest, SortedEdgesCanonicalOrder) {
  RandomEngine RNG(5);
  DCGSnapshot S = randomDCG(RNG, 100, 50).snapshot();
  const auto &A = S.sortedEdges();
  for (size_t I = 1; I < A.size(); ++I)
    EXPECT_TRUE(A[I - 1].first < A[I].first);
}

TEST(DCGSnapshotTest, FromEdgesCoalescesDuplicates) {
  std::vector<DCGSnapshot::Edge> Edges = {
      {edge(3, 1), 5}, {edge(1, 1), 2}, {edge(3, 1), 7}, {edge(1, 1), 1}};
  DCGSnapshot S = DCGSnapshot::fromEdges(std::move(Edges));
  EXPECT_EQ(S.numEdges(), 2u);
  EXPECT_EQ(S.weight(edge(1, 1)), 3u);
  EXPECT_EQ(S.weight(edge(3, 1)), 12u);
  EXPECT_EQ(S.totalWeight(), 15u);
}

TEST(DCGSnapshotTest, DefaultConstructedIsEmpty) {
  DCGSnapshot S;
  EXPECT_TRUE(S.empty());
  EXPECT_EQ(S.numEdges(), 0u);
  EXPECT_EQ(S.totalWeight(), 0u);
  EXPECT_TRUE(S.siteDistribution(0).empty());
  EXPECT_DOUBLE_EQ(S.fraction(edge(0, 0)), 0.0);
}

//===----------------------------------------------------------------------===//
// Overlap metric (§6.2)
//===----------------------------------------------------------------------===//

TEST(Overlap, IdenticalProfilesScore100) {
  RandomEngine RNG(7);
  DCGSnapshot S = randomDCG(RNG, 50, 100).snapshot();
  EXPECT_NEAR(overlap(S, S), 100.0, 1e-9);
}

TEST(Overlap, ScaledProfilesScore100) {
  // The metric compares percentages: doubling all weights changes
  // nothing.
  DynamicCallGraph A, B;
  A.addSample(edge(1, 1), 3);
  A.addSample(edge(2, 2), 7);
  B.addSample(edge(1, 1), 6);
  B.addSample(edge(2, 2), 14);
  EXPECT_NEAR(overlap(A.snapshot(), B.snapshot()), 100.0, 1e-9);
}

TEST(Overlap, DisjointProfilesScore0) {
  DynamicCallGraph A, B;
  A.addSample(edge(1, 1), 5);
  B.addSample(edge(2, 2), 5);
  EXPECT_DOUBLE_EQ(overlap(A.snapshot(), B.snapshot()), 0.0);
}

TEST(Overlap, EmptyRules) {
  DynamicCallGraph NonEmpty;
  NonEmpty.addSample(edge(1, 1));
  DCGSnapshot Empty, Full = NonEmpty.snapshot();
  EXPECT_DOUBLE_EQ(overlap(Empty, Empty), 100.0);
  EXPECT_DOUBLE_EQ(overlap(Empty, Full), 0.0);
  EXPECT_DOUBLE_EQ(overlap(Full, Empty), 0.0);
}

TEST(Overlap, IsSymmetric) {
  RandomEngine RNG(11);
  for (int Trial = 0; Trial != 20; ++Trial) {
    DCGSnapshot A = randomDCG(RNG, 30, 40).snapshot();
    DCGSnapshot B = randomDCG(RNG, 30, 40).snapshot();
    EXPECT_NEAR(overlap(A, B), overlap(B, A), 1e-9);
  }
}

TEST(Overlap, BoundedZeroToHundred) {
  RandomEngine RNG(13);
  for (int Trial = 0; Trial != 50; ++Trial) {
    DCGSnapshot A = randomDCG(RNG, 20, 30).snapshot();
    DCGSnapshot B = randomDCG(RNG, 20, 30).snapshot();
    double V = overlap(A, B);
    EXPECT_GE(V, 0.0);
    EXPECT_LE(V, 100.0 + 1e-9);
  }
}

TEST(Overlap, HalfWeightMatch) {
  // B has one of A's two equal edges: overlap is 50 + min portion.
  DynamicCallGraph A, B;
  A.addSample(edge(1, 1), 50);
  A.addSample(edge(2, 2), 50);
  B.addSample(edge(1, 1), 100);
  EXPECT_NEAR(overlap(A.snapshot(), B.snapshot()), 50.0, 1e-9);
}

TEST(Overlap, SkewMismatchScoresPartial) {
  DynamicCallGraph A, B;
  A.addSample(edge(1, 1), 80);
  A.addSample(edge(2, 2), 20);
  B.addSample(edge(1, 1), 20);
  B.addSample(edge(2, 2), 80);
  // min(80,20) + min(20,80) = 40.
  EXPECT_NEAR(overlap(A.snapshot(), B.snapshot()), 40.0, 1e-9);
}

TEST(Overlap, PerfectSubsampleConvergence) {
  // Sampling a profile uniformly at random converges to 100 as the
  // sample count grows (the property the accuracy experiments rely on).
  RandomEngine RNG(17);
  DynamicCallGraph Perfect;
  std::vector<CallEdge> Population;
  for (uint32_t I = 0; I != 10; ++I) {
    uint64_t W = (I + 1) * 10;
    Perfect.addSample(edge(I, I), W);
    for (uint64_t K = 0; K != W; ++K)
      Population.push_back(edge(I, I));
  }
  double Prev = 0;
  for (size_t N : {10u, 100u, 5000u}) {
    DynamicCallGraph Sampled;
    for (size_t K = 0; K != N; ++K)
      Sampled.addSample(Population[RNG.nextBelow(Population.size())]);
    double Acc = accuracy(Sampled.snapshot(), Perfect.snapshot());
    EXPECT_GE(Acc, Prev - 5.0) << "accuracy should improve with samples";
    Prev = Acc;
  }
  EXPECT_GT(Prev, 95.0);
}

TEST(Overlap, MissingTailCapsAccuracy) {
  // A sampler that only ever sees the head of the distribution cannot
  // exceed the head's weight share — the Figure 1 failure mode.
  DynamicCallGraph Perfect, HeadOnly;
  Perfect.addSample(edge(0, 0), 60);
  Perfect.addSample(edge(1, 1), 40);
  HeadOnly.addSample(edge(0, 0), 1000);
  EXPECT_NEAR(accuracy(HeadOnly.snapshot(), Perfect.snapshot()), 60.0, 1e-9);
}
