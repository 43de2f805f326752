//===- opt/InlineOracle.h - Inlining policies -------------------*- C++ -*-===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The inlining policies ("oracles") the paper compares:
///
///  - TrivialOracle: inline only methods whose bodies are smaller than a
///    calling sequence, plus safe CHA devirtualization. This is the
///    level-0 configuration of the accuracy experiments (§6.2).
///  - OldJikesOracle: Jikes RVM's pre-paper profile-directed inliner
///    (§5.1): an edge is *hot* iff it accounts for more than 1% of the
///    DCG's total weight; hot edges get an enlarged size threshold;
///    profile data for non-hot edges is completely ignored — which is
///    exactly the conservatism the paper found left opportunities on
///    the table.
///  - NewJikesOracle: the paper's new inliner (§5.1): edge weight feeds
///    a bounded linear size-threshold function (no hot/cold cliff), and
///    virtual call sites consider every callee with more than 40% of
///    the site's receiver distribution for guarded inlining.
///  - J9Oracle: J9's inliner (§5.2): aggressive static size heuristics;
///    when dynamic heuristics are enabled, cold sites override the
///    static decision to *not* inline and hot sites raise the size
///    threshold (the profile weight required scales linearly with
///    method size).
///
//===----------------------------------------------------------------------===//

#ifndef CBSVM_OPT_INLINEORACLE_H
#define CBSVM_OPT_INLINEORACLE_H

#include "opt/InlinePlan.h"
#include "profiling/DCGSnapshot.h"

namespace cbs::bc {
class Program;
}

namespace cbs::opt {

class InlineOracle {
public:
  virtual ~InlineOracle();
  /// Builds a whole-program plan from the current profile.
  virtual InlinePlan plan(const bc::Program &P,
                          const prof::DCGSnapshot &DCG) const = 0;
  virtual const char *name() const = 0;
};

/// Size in modelled bytecode bytes below which a body is "trivial":
/// smaller than the calling sequence it replaces.
inline constexpr uint32_t TrivialSizeBytes = 14;

class TrivialOracle : public InlineOracle {
public:
  InlinePlan plan(const bc::Program &P,
                  const prof::DCGSnapshot &DCG) const override;
  const char *name() const override { return "trivial"; }
};

class OldJikesOracle : public InlineOracle {
public:
  InlinePlan plan(const bc::Program &P,
                  const prof::DCGSnapshot &DCG) const override;
  const char *name() const override { return "old-jikes"; }
};

class NewJikesOracle : public InlineOracle {
public:
  struct Params {
    /// Cap of the edge-weight size threshold (see plan()).
    uint32_t MaxSizeBytes = 150;
  };

  NewJikesOracle() = default;
  explicit NewJikesOracle(Params Config) : Config(Config) {}
  InlinePlan plan(const bc::Program &P,
                  const prof::DCGSnapshot &DCG) const override;
  const char *name() const override { return "new-jikes"; }

private:
  Params Config;
};

class J9Oracle : public InlineOracle {
public:
  struct Params {
    /// Use the dynamic call graph at all (false = the Figure 5 right
    /// graph's "static heuristics only" baseline).
    bool UseDynamic = true;
  };

  J9Oracle() = default;
  explicit J9Oracle(Params Config) : Config(Config) {}
  InlinePlan plan(const bc::Program &P,
                  const prof::DCGSnapshot &DCG) const override;
  const char *name() const override { return "j9"; }

private:
  Params Config;
};

/// True if \p Selector has exactly one implementation over the whole
/// (closed) hierarchy; \p Target receives it. Such calls can be
/// devirtualized without a guard.
bool chaMonomorphic(const bc::Program &P, bc::SelectorId Selector,
                    bc::MethodId &Target);

} // namespace cbs::opt

#endif // CBSVM_OPT_INLINEORACLE_H
