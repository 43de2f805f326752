//===- vm/CodeCache.h - Active code versions --------------------*- C++ -*-===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Maps each method to its active version. Each install wraps the body
/// it receives in an InstalledVersion record: the body, read-only from
/// CompiledMethod::build on (install bakes nothing; it only checks that
/// the body's cost tables match its code), and the two fields that
/// change after install, the version's pinned-frame count and its
/// Invalidated flag. Replaced versions are retired to a graveyard
/// rather than freed because stack frames keep raw pointers to the
/// version they entered.
///
/// Two ways a version leaves the active set:
///  - install() of a newer version retires it (a recompile);
///  - invalidate() retires it with no replacement (a deoptimization):
///    the version is marked Invalidated, the method's invalidation
///    epoch advances, and the next invocation falls back to a fresh
///    baseline compile via the VM's lazy ensureCompiled path. So an
///    active version is never Invalidated.
///
/// The VM reports frame entry and exit per version (pinFrame/unpinFrame:
/// invocation and return, and OSR transfers in and out), so the cache
/// knows when no frame still executes a retired version. A retired
/// version is reclaimed the moment its last pinned frame leaves (or on
/// the spot, when it is retired with none): freed, with its
/// instructions moved from the graveyard account to the reclaimed
/// account. Once a run finishes and every frame has returned, the
/// graveyard is empty, with or without OSR.
///
/// Installing a version identical in (method, level, plan generation)
/// to the active one is a checked error: such a double-install would
/// silently leak the old version into the graveyard while changing
/// nothing, and every legitimate compile path either raises the level
/// or advances the plan.
///
//===----------------------------------------------------------------------===//

#ifndef CBSVM_VM_CODECACHE_H
#define CBSVM_VM_CODECACHE_H

#include "vm/CompiledMethod.h"

#include <cassert>
#include <memory>
#include <vector>

namespace cbs::bc {
class Program;
}

namespace cbs::vm {

/// One install of a body in a code cache. Frames point here: the body
/// is inline, so reaching its code and cost tables costs what reaching
/// a bare body would.
struct InstalledVersion {
  explicit InstalledVersion(CompiledMethod B) : Body(std::move(B)) {}

  const CompiledMethod Body;
  /// Live frames currently executing this version; the code cache uses
  /// it to reclaim graveyard versions once the last frame leaves.
  uint32_t PinnedFrames = 0;
  /// Set by CodeCache::invalidate when the version is retired by a
  /// deoptimization; frames still pinning it fall back to baseline
  /// execution speed at their next taken yieldpoint (and, with OSR
  /// enabled, transfer off it at the next mapped loop header).
  bool Invalidated = false;
};

class CodeCache {
public:
  explicit CodeCache(const bc::Program &P);

  /// The body of \p Id's active version, or nullptr if not yet
  /// compiled.
  const CompiledMethod *active(bc::MethodId Id) const {
    return Active[Id] ? &Active[Id]->Body : nullptr;
  }

  /// \p Id's active version, or nullptr if not yet compiled.
  InstalledVersion *activeVersion(bc::MethodId Id) { return Active[Id].get(); }

  /// Active optimization level; -1 if not yet compiled.
  int activeLevel(bc::MethodId Id) const {
    return Active[Id] ? Active[Id]->Body.Level : -1;
  }

  /// Installs a new version of a body CompiledMethod::build made; the
  /// previous one (if any) is retired but kept alive. The body moves
  /// into the version unchanged (its code and cost tables keep their
  /// addresses). Returns the installed version. Fatal error when the
  /// new version matches the active one's (level, plan generation) —
  /// see the file comment.
  InstalledVersion *install(CompiledMethod CM);

  /// Retires \p Id's active version with no replacement: the version is
  /// marked Invalidated (frames pinning it fall back to baseline speed
  /// at their next taken yieldpoint), moved to the graveyard, and the
  /// method's invalidation epoch advances. Returns the retired version
  /// (still alive in the graveyard), or nullptr when nothing was
  /// active.
  const InstalledVersion *invalidate(bc::MethodId Id);

  /// Straight level-\p Level translation of the original bytecode with
  /// no inlining: the default compile path when no compile hook is set.
  static CompiledMethod compileBaseline(const bc::Program &P, bc::MethodId Id,
                                        int Level);

  uint64_t totalCompileCycles() const { return CompileCycles; }
  uint64_t numCompiles() const { return Compiles; }
  uint64_t numRecompiles() const { return Recompiles; }
  /// Total invalidate() calls that retired a version.
  uint64_t numInvalidations() const { return Invalidations; }
  /// Times \p Id's active version has been invalidated. In-flight
  /// compile requests remember the epoch they were created under; a
  /// mismatch at install time means the code they were compiled for has
  /// since been deoptimized.
  uint64_t invalidationEpoch(bc::MethodId Id) const { return Epochs[Id]; }
  /// Sum of code sizes (instruction counts) of active versions,
  /// maintained incrementally.
  uint64_t activeCodeInstructions() const { return ActiveInstructions; }
  /// Same accounting for retired versions still alive in the graveyard:
  /// reclamation moves instructions out of this account as the last
  /// pinned frame leaves.
  uint64_t graveyardCodeInstructions() const { return GraveyardInstructions; }
  size_t graveyardSize() const { return Graveyard.size(); }

  /// A frame began executing \p V (invocation or OSR transfer in).
  void pinFrame(InstalledVersion *V) { ++V->PinnedFrames; }

  /// A frame stopped executing \p V (return or OSR transfer out). If
  /// \p V is retired and this was its last pinned frame, it is
  /// reclaimed on the spot.
  void unpinFrame(InstalledVersion *V) {
    assert(V->PinnedFrames > 0 && "unpin without a matching pin");
    // Every call returns through here (inline, on the interpreter's
    // hot path): only a retired version's last unpin pays for the
    // graveyard scan.
    if (--V->PinnedFrames == 0 && Active[V->Body.Id].get() != V)
      reclaimIfUnpinned(V);
  }

  /// Reclaims \p V now if it sits in the graveyard and no frame pins
  /// it. Called by the VM after invalidate() (a version retired with
  /// zero live frames would otherwise wait for an unpin that never
  /// comes). Returns true if the version was freed; \p V must not be
  /// used afterwards.
  bool reclaimIfUnpinned(const InstalledVersion *V);

  /// Instructions freed from the graveyard by reclamation (cumulative),
  /// and the number of versions freed.
  uint64_t reclaimedCodeInstructions() const { return ReclaimedInstructions; }
  uint64_t numReclaims() const { return Reclaims; }

private:
  std::vector<std::unique_ptr<InstalledVersion>> Active;
  std::vector<std::unique_ptr<InstalledVersion>> Graveyard;
  std::vector<uint64_t> Epochs;
  uint64_t CompileCycles = 0;
  uint64_t Compiles = 0;
  uint64_t Recompiles = 0;
  uint64_t Invalidations = 0;
  uint64_t ActiveInstructions = 0;
  uint64_t GraveyardInstructions = 0;
  uint64_t ReclaimedInstructions = 0;
  uint64_t Reclaims = 0;
};

} // namespace cbs::vm

#endif // CBSVM_VM_CODECACHE_H
