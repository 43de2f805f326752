//===- support/ArgParser.cpp - Strict command-line parsing -------------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//

#include "support/ArgParser.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <system_error>

using namespace cbs::support;

namespace {

/// \p V in shortest round-trip fixed notation: "100", not "100.000000".
std::string bound(double V) {
  char Buf[400]; // DBL_MAX has 309 integer digits
  return {Buf,
          std::to_chars(Buf, std::end(Buf), V, std::chars_format::fixed).ptr};
}

} // namespace

std::optional<uint64_t> cbs::support::parseWholeNumber(std::string_view Text) {
  const char *End = Text.data() + Text.size();
  uint64_t V = 0;
  auto [Ptr, Ec] = std::from_chars(Text.data(), End, V);
  if (Ec != std::errc() || Ptr != End)
    return std::nullopt;
  return V;
}

ArgParser::ArgParser(int Argc, char *const *Argv)
    : Args(Argv + (Argc > 0 ? 1 : 0), Argv + Argc),
      Consumed(Args.size(), false) {}

ArgParser::ArgParser(std::vector<std::string> Arguments)
    : Args(std::move(Arguments)), Consumed(Args.size(), false) {}

void ArgParser::fail(const std::string &Message) {
  if (Handler)
    Handler(Message);
  else
    std::fprintf(stderr, "error: %s\n", Message.c_str());
  std::exit(2);
}

std::string ArgParser::positional(const char *What) {
  for (size_t I = 0; I != Args.size(); ++I)
    if (!Args[I].empty() && Args[I][0] != '-' && !Consumed[I]) {
      Consumed[I] = true;
      return Args[I];
    }
  fail(std::string("missing ") + What);
}

std::string ArgParser::option(const char *Name, const char *Default) {
  for (size_t I = 0; I + 1 < Args.size(); ++I)
    if (Args[I] == Name && !Consumed[I]) {
      Consumed[I] = Consumed[I + 1] = true;
      return Args[I + 1];
    }
  // A trailing "--opt" with no value is an error, not a silent miss.
  if (!Args.empty() && Args.back() == Name && !Consumed.back())
    fail(std::string(Name) + " requires a value");
  return Default;
}

uint64_t ArgParser::optionUInt(const char *Name, uint64_t Default, uint64_t Min,
                               uint64_t Max) {
  // Absent means the default; given but empty ("--seed ''") is an error.
  if (!present(Name))
    return Default;
  std::string V = option(Name, "");
  std::optional<uint64_t> Parsed = parseWholeNumber(V);
  // All digits but unparsed means past UINT64_MAX: out of range.
  if (!Parsed && (V.empty() ||
                  V.find_first_not_of("0123456789") != std::string::npos))
    fail(std::string(Name) + " expects an unsigned integer, got '" + V + "'");
  if (!Parsed || *Parsed < Min || *Parsed > Max)
    fail(std::string(Name) + " must be in [" + std::to_string(Min) + ", " +
         std::to_string(Max) + "], got '" + V + "'");
  return *Parsed;
}

double ArgParser::optionDouble(const char *Name, double Default, double Min,
                               double Max) {
  if (!present(Name))
    return Default;
  std::string V = option(Name, "");
  // Reject inf/nan/hex floats up front: option values are plain decimal
  // numbers.
  bool Plain = true;
  for (char C : V)
    if (!((C >= '0' && C <= '9') || C == '.' || C == '-' || C == '+' ||
          C == 'e' || C == 'E'))
      Plain = false;
  // from_chars, not strtod: the parse must not depend on the process
  // locale (under e.g. LC_NUMERIC=de_DE, strtod("0.9") stops at the
  // period and yields 0). from_chars rejects a leading '+', which we
  // accept — skip exactly one.
  const char *Begin = V.c_str();
  const char *End = Begin + V.size();
  if (Begin != End && *Begin == '+')
    ++Begin;
  double Parsed = 0.0;
  auto [Ptr, Ec] = std::from_chars(Begin, End, Parsed);
  if (!Plain || Begin == End || Ec != std::errc() || Ptr != End)
    fail(std::string(Name) + " expects a decimal number, got '" + V + "'");
  if (Parsed < Min || Parsed > Max)
    fail(std::string(Name) + " must be in [" + bound(Min) + ", " +
         bound(Max) + "], got '" + V + "'");
  return Parsed;
}

bool ArgParser::flag(const char *Name) {
  for (size_t I = 0; I != Args.size(); ++I)
    if (Args[I] == Name && !Consumed[I]) {
      Consumed[I] = true;
      return true;
    }
  return false;
}

bool ArgParser::present(const char *Name) const {
  for (size_t I = 0; I != Args.size(); ++I)
    if (Args[I] == Name && !Consumed[I])
      return true;
  return false;
}

void ArgParser::finish() {
  for (size_t I = 0; I != Args.size(); ++I)
    if (!Consumed[I])
      fail("unexpected argument '" + Args[I] + "'");
}
