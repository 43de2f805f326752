//===- profiling/ProfileCodec.h - versioned profile codec -------*- C++ -*-===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The versioned text codec for dynamic call graph profiles. This is
/// the single serialization surface: the cbsvm driver, the experiment
/// harness, the fuzz roundtrip oracle, and the on-disk
/// ProfileRepository all encode and decode through it, so a format
/// change is one version bump here instead of a divergent set of
/// ad-hoc parsers.
///
/// Two formats share the `cbsvm-dcg <version>` magic header:
///
///   v1 — the bare edge list (byte-identical to the original
///        serializeDCG output, so golden fixtures and byte-equality
///        oracles carry over unchanged):
///
///          cbsvm-dcg 1
///          # edges: N, total weight: W
///          <site> <callee> <weight>
///
///   v2 — v1 plus run provenance metadata, one `!key value` line per
///        field, emitted between the header and the edge comment:
///
///          cbsvm-dcg 2
///          !program 00000000075bcd15
///          !personality jikes
///          !runs 3
///          !cycles 123456
///          # edges: N, total weight: W
///          <site> <callee> <weight>
///
/// The metadata is what makes a profile safe to reuse across runs: the
/// program content hash and profiler personality let a loader reject a
/// profile collected from a different program (or a differently-shaped
/// profiler) instead of silently seeding optimization with it, and the
/// run counter / cycle total carry the repository's merge history.
///
/// decode() reads both versions; unknown versions are rejected with the
/// exact diagnostic "unsupported version N (supported: 1, 2)". v1 input
/// decodes with default (empty) metadata. Edges are emitted in the
/// snapshot's canonical order, so equal profiles with equal metadata
/// encode byte-identically — the property every determinism check
/// (the determinism matrix, fuzz oracles) rests on.
///
/// The codec is deliberately program-agnostic (a repository can decode
/// entries for programs it has never seen); validateAgainst() is the
/// separate check of whether decoded edges make sense for a particular
/// program.
///
//===----------------------------------------------------------------------===//

#ifndef CBSVM_PROFILING_PROFILECODEC_H
#define CBSVM_PROFILING_PROFILECODEC_H

#include "profiling/DCGSnapshot.h"

#include <cstdint>
#include <optional>
#include <string>

namespace cbs::bc {
class Program;
}

namespace cbs::prof {

/// Run provenance carried by v2 profiles: which program (content hash)
/// and profiler personality the edges were collected under, and how
/// much history a merged repository entry embodies.
struct ProfileMeta {
  /// bc::Program::contentHash() of the program the profile describes.
  uint64_t ProgramHash = 0;
  /// VM personality name ("jikes" / "j9"). Edge semantics differ per
  /// personality, so profiles do not transfer between them.
  std::string Personality;
  /// Number of runs merged into this profile (1 for a single run).
  uint64_t Runs = 0;
  /// Total virtual cycles across the merged runs.
  uint64_t Cycles = 0;
};

class ProfileCodec {
public:
  static constexpr const char *Magic = "cbsvm-dcg";
  static constexpr int V1 = 1;
  static constexpr int V2 = 2;
  static constexpr int CurrentVersion = V2;

  /// Decode result: the version read, the snapshot, the metadata (v2
  /// only; defaults for v1), or an error description.
  struct Decoded {
    int Version = 0;
    std::optional<DCGSnapshot> Graph;
    ProfileMeta Meta;
    std::string Error;

    bool ok() const { return Graph.has_value(); }
  };

  /// Encodes \p DCG as v1 (no metadata) — byte-identical to the legacy
  /// serializeDCG output for the same snapshot.
  static std::string encode(const DCGSnapshot &DCG);

  /// Encodes \p DCG as v2 with \p Meta.
  static std::string encode(const DCGSnapshot &DCG, const ProfileMeta &Meta);

  /// Parses either version. Malformed lines, out-of-range ids,
  /// duplicate edges, a total weight past 64 bits, duplicate or unknown
  /// metadata keys, and unknown versions are errors; `!` metadata lines in a v1 body are malformed
  /// edges (v1 predates them).
  static Decoded decode(const std::string &Text);
};

/// Checks that every edge of \p DCG refers to a valid site/method of
/// \p P and that the callee is plausible for the site (static target
/// matches; virtual callee implements the site's selector). Returns an
/// empty string if fine, else a description of the first problem.
std::string validateAgainst(const DCGSnapshot &DCG, const bc::Program &P);

} // namespace cbs::prof

#endif // CBSVM_PROFILING_PROFILECODEC_H
