//===- profiling/ProfileRepository.cpp - cross-run profile store ---------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//

#include "profiling/ProfileRepository.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <vector>

using namespace cbs;
using namespace cbs::prof;

namespace fs = std::filesystem;

namespace {

std::string hexHash(uint64_t H) {
  std::ostringstream OS;
  OS << std::hex << std::setfill('0') << std::setw(16) << H;
  return OS.str();
}

} // namespace

ProfileRepository::ProfileRepository(std::string Dir) : Dir(std::move(Dir)) {}

std::string ProfileRepository::pathFor(const std::string &Workload) const {
  // The workload name becomes a file name; anything that could escape
  // the directory or upset a shell is flattened. The name is only the
  // lookup key — the entry's embedded hash is what actually gates use.
  std::string Safe;
  Safe.reserve(Workload.size());
  for (char C : Workload) {
    bool Ok = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
              (C >= '0' && C <= '9') || C == '-' || C == '_';
    Safe.push_back(Ok ? C : '_');
  }
  if (Safe.empty())
    Safe = "_";
  return Dir + "/" + Safe + ".dcg";
}

RepoLoadResult ProfileRepository::load(const RepoKey &Key) const {
  RepoLoadResult Result;
  std::string Path = pathFor(Key.Workload);

  std::error_code EC;
  if (!fs::exists(Path, EC) || EC)
    return Result; // plain miss

  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    Result.Rejected = true;
    Result.Diagnostic = "cannot read repository entry " + Path;
    return Result;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();

  ProfileCodec::Decoded D = ProfileCodec::decode(Buf.str());
  if (!D.ok()) {
    Result.Rejected = true;
    Result.Diagnostic =
        "corrupt repository entry " + Path + ": " + D.Error;
    return Result;
  }
  if (D.Version < ProfileCodec::V2) {
    // A v1 profile decodes fine but carries no provenance: there is no
    // way to tell which program (or personality) it describes, and
    // seeding compilation from it would be exactly the silent-mismatch
    // bug the metadata exists to prevent.
    Result.Rejected = true;
    Result.Diagnostic = "repository entry " + Path +
                        " is v1 (no provenance metadata); ignoring";
    return Result;
  }
  if (D.Meta.ProgramHash != Key.ProgramHash) {
    Result.Rejected = true;
    Result.Diagnostic = "program hash mismatch for '" + Key.Workload +
                        "': repository " + hexHash(D.Meta.ProgramHash) +
                        ", current " + hexHash(Key.ProgramHash) +
                        "; profile ignored";
    return Result;
  }
  if (D.Meta.Personality != Key.Personality) {
    Result.Rejected = true;
    Result.Diagnostic = "personality mismatch for '" + Key.Workload +
                        "': repository '" + D.Meta.Personality +
                        "', current '" + Key.Personality +
                        "'; profile ignored";
    return Result;
  }
  Result.Entry = RepoEntry{std::move(*D.Graph), std::move(D.Meta)};
  return Result;
}

DCGSnapshot ProfileRepository::merge(const DCGSnapshot &Old,
                                     const DCGSnapshot &New) {
  // conf = 10000 * W / (W + pivot): a heavy run dominates, a tiny run
  // barely registers. Integer arithmetic throughout so the merged
  // profile is identical on every host.
  uint64_t W = New.totalWeight();
  uint64_t ConfBp = 10'000 * W / (W + ConfidencePivot);

  std::vector<DCGSnapshot::Edge> Merged;
  Old.forEachEdge([&](CallEdge E, uint64_t Weight) {
    uint64_t Decayed = Weight * AgeDecayBp / 10'000;
    uint64_t Fresh = New.weight(E) * ConfBp / 10'000;
    if (Decayed + Fresh > 0)
      Merged.emplace_back(E, Decayed + Fresh);
  });
  New.forEachEdge([&](CallEdge E, uint64_t Weight) {
    if (Old.weight(E) > 0)
      return; // already merged above
    uint64_t Fresh = Weight * ConfBp / 10'000;
    if (Fresh > 0)
      Merged.emplace_back(E, Fresh);
  });
  return DCGSnapshot::fromEdges(std::move(Merged));
}

RepoCommitResult ProfileRepository::commit(const RepoKey &Key,
                                           const DCGSnapshot &Run,
                                           uint64_t RunCycles) {
  RepoCommitResult Result;

  std::error_code EC;
  fs::create_directories(Dir, EC);
  if (EC) {
    Result.Error = "cannot create repository directory " + Dir + ": " +
                   EC.message();
    return Result;
  }

  // A rejected entry (corrupt, v1, foreign program) is treated as
  // absent: committing over it upgrades the file to a valid v2 entry
  // for the *current* program.
  RepoLoadResult Existing = load(Key);

  ProfileMeta Meta;
  Meta.ProgramHash = Key.ProgramHash;
  Meta.Personality = Key.Personality;
  DCGSnapshot Merged =
      Existing.ok() ? merge(Existing.Entry->Graph, Run) : Run;
  Meta.Runs = Existing.ok() ? Existing.Entry->Meta.Runs + 1 : 1;
  Meta.Cycles =
      (Existing.ok() ? Existing.Entry->Meta.Cycles : 0) + RunCycles;

  std::string Path = pathFor(Key.Workload);
  // Unique-enough temp name per process; rename() below is atomic, so
  // concurrent runs are last-writer-wins and readers never see a torn
  // file.
  std::string Tmp =
      Path + ".tmp." +
      std::to_string(reinterpret_cast<uintptr_t>(&Result) ^ RunCycles);
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out) {
      Result.Error = "cannot write repository entry " + Tmp;
      return Result;
    }
    Out << ProfileCodec::encode(Merged, Meta);
    if (!Out.good()) {
      Result.Error = "write failed for repository entry " + Tmp;
      return Result;
    }
  }
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    std::remove(Tmp.c_str());
    Result.Error = "cannot rename " + Tmp + " to " + Path;
    return Result;
  }
  Result.Committed = true;
  Result.Runs = Meta.Runs;
  return Result;
}
