//===- profiling/ProfileCodec.cpp - versioned profile codec --------------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//

#include "profiling/ProfileCodec.h"

#include "bytecode/Ids.h"
#include "bytecode/Program.h"
#include "support/ArgParser.h"

#include <iomanip>
#include <sstream>
#include <unordered_set>

using namespace cbs;
using namespace cbs::prof;

namespace {

void encodeEdges(std::ostringstream &OS, const DCGSnapshot &DCG) {
  OS << "# edges: " << DCG.numEdges() << ", total weight: "
     << DCG.totalWeight() << '\n';
  DCG.forEachEdge([&](CallEdge E, uint64_t W) {
    OS << E.Site << ' ' << E.Callee << ' ' << W << '\n';
  });
}

std::string lineError(size_t LineNo, const std::string &What) {
  return "line " + std::to_string(LineNo) + ": " + What;
}

/// Strict full-string decimal parse (no prefixes, no sign).
bool parseUInt(const std::string &S, uint64_t &Out) {
  std::optional<uint64_t> V = support::parseWholeNumber(S);
  if (V)
    Out = *V;
  return V.has_value();
}

/// Strict 16-digit lowercase hex parse (the !program value format).
bool parseHash(const std::string &S, uint64_t &Out) {
  if (S.size() != 16)
    return false;
  uint64_t V = 0;
  for (char C : S) {
    uint64_t Digit;
    if (C >= '0' && C <= '9')
      Digit = static_cast<uint64_t>(C - '0');
    else if (C >= 'a' && C <= 'f')
      Digit = static_cast<uint64_t>(C - 'a') + 10;
    else
      return false;
    V = (V << 4) | Digit;
  }
  Out = V;
  return true;
}

} // namespace

std::string ProfileCodec::encode(const DCGSnapshot &DCG) {
  std::ostringstream OS;
  OS << Magic << ' ' << V1 << '\n';
  encodeEdges(OS, DCG);
  return OS.str();
}

std::string ProfileCodec::encode(const DCGSnapshot &DCG,
                                 const ProfileMeta &Meta) {
  std::ostringstream OS;
  OS << Magic << ' ' << V2 << '\n';
  OS << "!program " << std::hex << std::setfill('0') << std::setw(16)
     << Meta.ProgramHash << std::dec << '\n';
  OS << "!personality " << Meta.Personality << '\n';
  OS << "!runs " << Meta.Runs << '\n';
  OS << "!cycles " << Meta.Cycles << '\n';
  encodeEdges(OS, DCG);
  return OS.str();
}

ProfileCodec::Decoded ProfileCodec::decode(const std::string &Text) {
  Decoded Result;
  std::istringstream IS(Text);
  std::string Line;

  if (!std::getline(IS, Line)) {
    Result.Error = "empty input";
    return Result;
  }
  {
    std::istringstream Header(Line);
    std::string Word;
    int V = -1;
    Header >> Word >> V;
    if (Word != Magic) {
      Result.Error = "bad magic: expected '" + std::string(Magic) + "'";
      return Result;
    }
    if (V != V1 && V != V2) {
      Result.Error = "unsupported version " + std::to_string(V) +
                     " (supported: 1, 2)";
      return Result;
    }
    Result.Version = V;
  }

  std::vector<DCGSnapshot::Edge> Edges;
  std::unordered_set<CallEdge, CallEdgeHash> Seen;
  std::unordered_set<std::string> MetaSeen;
  uint64_t TotalWeight = 0;
  size_t LineNo = 1;
  while (std::getline(IS, Line)) {
    ++LineNo;
    if (Line.empty() || Line[0] == '#')
      continue;
    if (Result.Version >= V2 && Line[0] == '!') {
      // A `!key value` metadata line. v1 bodies fall through to the
      // edge parser below, where `!...` is a malformed edge — v1
      // predates metadata and must stay as strict as it always was.
      std::istringstream MS(Line);
      std::string Key, Value, Trailing;
      MS >> Key >> Value;
      Key.erase(0, 1); // strip '!'
      if (MS >> Trailing) {
        Result.Error = lineError(LineNo, "trailing tokens");
        return Result;
      }
      if (!MetaSeen.insert(Key).second) {
        Result.Error =
            lineError(LineNo, "duplicate metadata key '" + Key + "'");
        return Result;
      }
      if (Key == "program") {
        if (!parseHash(Value, Result.Meta.ProgramHash)) {
          Result.Error =
              lineError(LineNo, "bad program hash '" + Value + "'");
          return Result;
        }
      } else if (Key == "personality") {
        if (Value.empty()) {
          Result.Error = lineError(LineNo, "empty personality");
          return Result;
        }
        Result.Meta.Personality = Value;
      } else if (Key == "runs") {
        if (!parseUInt(Value, Result.Meta.Runs)) {
          Result.Error = lineError(LineNo, "bad run count '" + Value + "'");
          return Result;
        }
      } else if (Key == "cycles") {
        if (!parseUInt(Value, Result.Meta.Cycles)) {
          Result.Error =
              lineError(LineNo, "bad cycle count '" + Value + "'");
          return Result;
        }
      } else {
        Result.Error =
            lineError(LineNo, "unknown metadata key '" + Key + "'");
        return Result;
      }
      continue;
    }
    std::istringstream LS(Line);
    uint64_t Site, Callee, Weight;
    if (!(LS >> Site >> Callee >> Weight)) {
      Result.Error = lineError(LineNo, "malformed edge");
      return Result;
    }
    std::string Trailing;
    if (LS >> Trailing) {
      Result.Error = lineError(LineNo, "trailing tokens");
      return Result;
    }
    if (Weight == 0) {
      Result.Error = lineError(LineNo, "zero weight edge");
      return Result;
    }
    // The snapshot's total weight (every overlap and edge fraction's
    // denominator) must not wrap.
    if (Weight > UINT64_MAX - TotalWeight) {
      Result.Error = lineError(LineNo, "total weight overflows 64 bits");
      return Result;
    }
    TotalWeight += Weight;
    // Ids are 32-bit; range-check before narrowing so an oversized (or
    // negative, which istream wraps to huge) id errors instead of
    // silently truncating to some unrelated valid edge. The all-ones
    // values are the Invalid sentinels and equally unusable.
    if (Site >= bc::InvalidSiteId) {
      Result.Error = lineError(
          LineNo, "site id out of range: " + std::to_string(Site));
      return Result;
    }
    if (Callee >= bc::InvalidMethodId) {
      Result.Error = lineError(
          LineNo, "callee id out of range: " + std::to_string(Callee));
      return Result;
    }
    CallEdge E{static_cast<bc::SiteId>(Site),
               static_cast<bc::MethodId>(Callee)};
    if (!Seen.insert(E).second) {
      Result.Error = lineError(LineNo, "duplicate edge");
      return Result;
    }
    Edges.emplace_back(E, Weight);
  }
  Result.Graph = DCGSnapshot::fromEdges(std::move(Edges));
  return Result;
}

std::string prof::validateAgainst(const DCGSnapshot &DCG,
                                  const bc::Program &P) {
  std::string Problem;
  DCG.forEachEdge([&](CallEdge E, uint64_t) {
    if (!Problem.empty())
      return;
    if (E.Site >= P.numSites()) {
      Problem = "edge refers to unknown site " + std::to_string(E.Site);
      return;
    }
    if (E.Callee >= P.numMethods()) {
      Problem =
          "edge refers to unknown method " + std::to_string(E.Callee);
      return;
    }
    const bc::SiteInfo &Info = P.site(E.Site);
    const bc::Instruction &I = P.method(Info.Caller).Code[Info.PC];
    const bc::Method &Callee = P.method(E.Callee);
    if (I.Op == bc::Opcode::InvokeStatic) {
      if (static_cast<bc::MethodId>(I.A) != E.Callee)
        Problem = "static site " + std::to_string(E.Site) +
                  " cannot call " + P.qualifiedName(E.Callee);
    } else if (I.Op == bc::Opcode::InvokeVirtual) {
      if (!Callee.isVirtual() ||
          Callee.Selector != static_cast<bc::SelectorId>(I.A))
        Problem = "virtual site " + std::to_string(E.Site) +
                  " cannot dispatch to " + P.qualifiedName(E.Callee);
    } else {
      Problem = "site " + std::to_string(E.Site) +
                " is not a call instruction";
    }
  });
  return Problem;
}
