//===- tests/ProfileRepositoryTest.cpp - cross-run profile store tests ---------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//

#include "experiments/RunDriver.h"
#include "profiling/ProfileCodec.h"
#include "profiling/ProfileRepository.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include <unistd.h>

using namespace cbs;
using namespace cbs::prof;

namespace fs = std::filesystem;

namespace {

/// Fresh empty directory under the test temp root, wiped on entry so
/// reruns are hermetic. All of them sit in one directory private to this
/// process, so that two builds' suites may run at once, and removed when
/// the process exits.
std::string freshDir(const char *Name) {
  static const struct ProcessRoot {
    fs::path Path = fs::path(testing::TempDir()) /
                    ("cbsvm-repo-" + std::to_string(getpid()));
    ~ProcessRoot() {
      std::error_code Ignored;
      fs::remove_all(Path, Ignored);
    }
  } Root;
  fs::path P = Root.Path / Name;
  fs::remove_all(P);
  fs::create_directories(P);
  return P.string();
}

DCGSnapshot graphOf(std::initializer_list<DCGSnapshot::Edge> Edges) {
  return DCGSnapshot::fromEdges(std::vector<DCGSnapshot::Edge>(Edges));
}

RepoKey keyFor(const char *Workload, uint64_t Hash = 0xabcdef0011223344ull,
               const char *Pers = "jikes") {
  RepoKey K;
  K.Workload = Workload;
  K.ProgramHash = Hash;
  K.Personality = Pers;
  return K;
}

void writeFile(const std::string &Path, const std::string &Contents) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(Out.good());
  Out << Contents;
}

} // namespace

//===----------------------------------------------------------------------===//
// Merge math — pinned. The merge is a documented integer formula; if
// these numbers change, the repository format effectively changed.
//===----------------------------------------------------------------------===//

TEST(ProfileRepository, MergeMathIsPinned) {
  // New run: total weight W = 600, so
  //   conf = 10000 * 600 / (600 + 1024) = 3694   (integer division)
  // and with AgeDecayBp = 5000:
  //   merged(1,2) = 1000 * 5000/10000 + 500 * 3694/10000 = 500 + 184 = 684
  //   merged(3,4) = 0 + 100 * 3694/10000 = 36
  DCGSnapshot Old = graphOf({{{1, 2}, 1000}});
  DCGSnapshot New = graphOf({{{1, 2}, 500}, {{3, 4}, 100}});
  DCGSnapshot Merged = ProfileRepository::merge(Old, New);
  EXPECT_EQ(Merged.numEdges(), 2u);
  EXPECT_EQ(Merged.weight({1, 2}), 684u);
  EXPECT_EQ(Merged.weight({3, 4}), 36u);
}

TEST(ProfileRepository, MergeDropsZeroRoundedEdges) {
  // An old weight-1 edge decays to 0 (1 * 5000/10000), and a new edge
  // from a near-zero-confidence run rounds to 0 too: neither survives.
  DCGSnapshot Old = graphOf({{{1, 1}, 1}, {{2, 2}, 100}});
  DCGSnapshot New = graphOf({{{9, 9}, 1}}); // W=1 -> conf = 10000/1025 = 9
  DCGSnapshot Merged = ProfileRepository::merge(Old, New);
  EXPECT_EQ(Merged.weight({1, 1}), 0u);
  EXPECT_EQ(Merged.weight({9, 9}), 0u);
  EXPECT_EQ(Merged.weight({2, 2}), 50u);
  EXPECT_EQ(Merged.numEdges(), 1u);
}

TEST(ProfileRepository, RepeatedCommitsAgeDecayOldEvidence) {
  std::string Dir = freshDir("age-decay");
  ProfileRepository Repo(Dir);
  RepoKey Key = keyFor("w");

  // First commit is verbatim; an edge the program then never exercises
  // again halves (decays) on every later commit.
  DCGSnapshot First = graphOf({{{1, 2}, 4096}});
  DCGSnapshot Later = graphOf({{{3, 4}, 1'000'000}}); // conf ~ 9989
  ASSERT_TRUE(Repo.commit(Key, First, 100).Committed);
  uint64_t Prev = 4096;
  for (int I = 0; I != 3; ++I) {
    ASSERT_TRUE(Repo.commit(Key, Later, 100).Committed);
    RepoLoadResult L = Repo.load(Key);
    ASSERT_TRUE(L.ok()) << L.Diagnostic;
    uint64_t Now = L.Entry->Graph.weight({1, 2});
    EXPECT_EQ(Now, Prev / 2) << "commit " << I;
    Prev = Now;
  }
  RepoLoadResult L = Repo.load(Key);
  ASSERT_TRUE(L.ok());
  EXPECT_EQ(L.Entry->Meta.Runs, 4u);
  EXPECT_EQ(L.Entry->Meta.Cycles, 400u);
}

TEST(ProfileRepository, FirstCommitStoresRunVerbatim) {
  std::string Dir = freshDir("first-commit");
  ProfileRepository Repo(Dir);
  RepoKey Key = keyFor("phased");

  DCGSnapshot Run = graphOf({{{5, 6}, 77}, {{7, 8}, 3}});
  RepoCommitResult C = Repo.commit(Key, Run, 12345);
  ASSERT_TRUE(C.Committed) << C.Error;
  EXPECT_EQ(C.Runs, 1u);

  RepoLoadResult L = Repo.load(Key);
  ASSERT_TRUE(L.ok()) << L.Diagnostic;
  EXPECT_EQ(ProfileCodec::encode(L.Entry->Graph), ProfileCodec::encode(Run));
  EXPECT_EQ(L.Entry->Meta.Runs, 1u);
  EXPECT_EQ(L.Entry->Meta.Cycles, 12345u);
  EXPECT_EQ(L.Entry->Meta.ProgramHash, Key.ProgramHash);
  EXPECT_EQ(L.Entry->Meta.Personality, Key.Personality);
}

//===----------------------------------------------------------------------===//
// Rejection paths: a bad entry is a clean skip with a diagnostic,
// never a crash and never a silently-seeded profile.
//===----------------------------------------------------------------------===//

TEST(ProfileRepository, MissingEntryIsAPlainMiss) {
  ProfileRepository Repo(freshDir("miss"));
  RepoLoadResult L = Repo.load(keyFor("nothing-here"));
  EXPECT_FALSE(L.ok());
  EXPECT_FALSE(L.Rejected);
  EXPECT_TRUE(L.Diagnostic.empty());
}

TEST(ProfileRepository, RejectsCorruptTruncatedAndWrongVersionEntries) {
  std::string Dir = freshDir("reject");
  ProfileRepository Repo(Dir);
  RepoKey Key = keyFor("w");
  std::string Path = Repo.pathFor("w");

  writeFile(Path, "complete garbage\n");
  RepoLoadResult Garbage = Repo.load(Key);
  EXPECT_FALSE(Garbage.ok());
  EXPECT_TRUE(Garbage.Rejected);
  EXPECT_NE(Garbage.Diagnostic.find("corrupt repository entry"),
            std::string::npos)
      << Garbage.Diagnostic;

  // Truncated mid-edge: decodes as a malformed line.
  writeFile(Path, "cbsvm-dcg 2\n!program 00000000000000aa\n!personality "
                  "jikes\n!runs 1\n!cycles 5\n1 2");
  RepoLoadResult Truncated = Repo.load(Key);
  EXPECT_FALSE(Truncated.ok());
  EXPECT_TRUE(Truncated.Rejected);
  EXPECT_NE(Truncated.Diagnostic.find("malformed edge"), std::string::npos)
      << Truncated.Diagnostic;

  writeFile(Path, "cbsvm-dcg 3\n1 2 3\n");
  RepoLoadResult Future = Repo.load(Key);
  EXPECT_FALSE(Future.ok());
  EXPECT_TRUE(Future.Rejected);
  EXPECT_NE(Future.Diagnostic.find("unsupported version 3 (supported: 1, 2)"),
            std::string::npos)
      << Future.Diagnostic;

  // v1 decodes but has no provenance — unusable as repository advice.
  writeFile(Path, "cbsvm-dcg 1\n1 2 3\n");
  RepoLoadResult V1 = Repo.load(Key);
  EXPECT_FALSE(V1.ok());
  EXPECT_TRUE(V1.Rejected);
  EXPECT_NE(V1.Diagnostic.find("is v1 (no provenance metadata)"),
            std::string::npos)
      << V1.Diagnostic;
}

TEST(ProfileRepository, RejectsHashAndPersonalityMismatches) {
  std::string Dir = freshDir("mismatch");
  ProfileRepository Repo(Dir);
  DCGSnapshot Run = graphOf({{{1, 2}, 10}});
  ASSERT_TRUE(Repo.commit(keyFor("w", 0xaa, "jikes"), Run, 1).Committed);

  RepoLoadResult Hash = Repo.load(keyFor("w", 0xbb, "jikes"));
  EXPECT_FALSE(Hash.ok());
  EXPECT_TRUE(Hash.Rejected);
  EXPECT_NE(Hash.Diagnostic.find("program hash mismatch for 'w'"),
            std::string::npos)
      << Hash.Diagnostic;

  RepoLoadResult Pers = Repo.load(keyFor("w", 0xaa, "j9"));
  EXPECT_FALSE(Pers.ok());
  EXPECT_TRUE(Pers.Rejected);
  EXPECT_NE(Pers.Diagnostic.find("personality mismatch for 'w'"),
            std::string::npos)
      << Pers.Diagnostic;
}

TEST(ProfileRepository, CommitOverRejectedEntryUpgradesIt) {
  // A v1 (or foreign-program) file is treated as absent: the commit
  // replaces it with a fresh v2 entry, Runs restarting at 1.
  std::string Dir = freshDir("upgrade");
  ProfileRepository Repo(Dir);
  RepoKey Key = keyFor("w");
  writeFile(Repo.pathFor("w"), "cbsvm-dcg 1\n1 2 3\n");

  DCGSnapshot Run = graphOf({{{1, 2}, 10}});
  RepoCommitResult C = Repo.commit(Key, Run, 7);
  ASSERT_TRUE(C.Committed) << C.Error;
  EXPECT_EQ(C.Runs, 1u);
  RepoLoadResult L = Repo.load(Key);
  ASSERT_TRUE(L.ok()) << L.Diagnostic;
  EXPECT_EQ(L.Entry->Graph.weight({1, 2}), 10u);
}

TEST(ProfileRepository, ConcurrentStyleCommitsAreLastWriterWinsAndClean) {
  // Two repository handles on the same directory (two "processes").
  // Each commit re-reads the file it is merging over and renames its
  // temp file into place, so the final file is always one writer's
  // complete output — decodable, with no temp droppings left behind.
  std::string Dir = freshDir("last-writer");
  ProfileRepository A(Dir), B(Dir);
  RepoKey Key = keyFor("w");
  ASSERT_TRUE(A.commit(Key, graphOf({{{1, 2}, 100}}), 10).Committed);
  ASSERT_TRUE(B.commit(Key, graphOf({{{3, 4}, 200}}), 20).Committed);

  RepoLoadResult L = A.load(Key);
  ASSERT_TRUE(L.ok()) << L.Diagnostic;
  EXPECT_EQ(L.Entry->Meta.Runs, 2u);
  EXPECT_EQ(L.Entry->Meta.Cycles, 30u);

  size_t Files = 0;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir)) {
    ++Files;
    EXPECT_EQ(E.path().extension(), ".dcg") << E.path();
  }
  EXPECT_EQ(Files, 1u);
}

TEST(ProfileRepository, PathForSanitizesWorkloadNames) {
  ProfileRepository Repo("repo");
  EXPECT_EQ(Repo.pathFor("jess"), "repo/jess.dcg");
  EXPECT_EQ(Repo.pathFor("../../etc/passwd"), "repo/______etc_passwd.dcg");
  EXPECT_EQ(Repo.pathFor(""), "repo/_.dcg");
}

//===----------------------------------------------------------------------===//
// Warm start end to end, through the driver's own repository wiring: the
// cold run commits an entry; the warm run loads it, pre-enqueues
// compiles at cycle 0, installs strictly earlier, and prints exactly
// what the cold run printed. Byte-identity of both runs and of the
// entry at any --compile-jobs count is DeterminismMatrixTest's.
//===----------------------------------------------------------------------===//

TEST(ProfileRepository, WarmStartKeepsOutputAndInstallsEarlier) {
  std::string Dir = freshDir("warm");
  // `cbsvm run jess --profile-repo DIR`, wired as the driver wires it.
  auto Run = [&Dir](std::vector<int64_t> &Output) {
    support::ArgParser Args({"jess", "--profile-repo", Dir});
    exp::RunSetup S = exp::parseRunSetup(Args);
    exp::DriverRun R(S);
    EXPECT_EQ(R.run(), vm::RunState::Finished);
    Output = R.vm().output();
    return R.adaptive()->stats();
  };
  std::vector<int64_t> ColdOutput, WarmOutput;
  aos::AOSStats Cold = Run(ColdOutput);
  EXPECT_EQ(Cold.WarmEnqueued, 0u);
  EXPECT_GT(fs::file_size(ProfileRepository(Dir).pathFor("jess")), 0u);
  ASSERT_GT(Cold.FirstInstallCycle, 0u) << "the cold run installed nothing";

  aos::AOSStats Warm = Run(WarmOutput);
  // Advice changes scheduling, never results.
  EXPECT_EQ(WarmOutput, ColdOutput);
  EXPECT_GT(Warm.WarmEnqueued, 0u);
  EXPECT_LT(Warm.FirstInstallCycle, Cold.FirstInstallCycle);
}
