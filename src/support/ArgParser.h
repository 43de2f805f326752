//===- support/ArgParser.h - Strict command-line parsing --------*- C++ -*-===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The strict argument parser shared by the cbsvm driver and every bench
/// binary. Options are pulled by name, positionals in order; finish()
/// rejects anything left over, so a typo ("--job 8", "--metrics_json")
/// is a hard error in every binary rather than a silently ignored flag.
///
/// Numeric options go through optionUInt, which requires the *entire*
/// argument to lex as a decimal integer within the stated range — no
/// std::stoull-style "123abc" prefixes. parseWholeNumber is that same
/// rule for any other text (environment variables, file fields).
///
/// Errors route through a per-parser handler (default: print to stderr,
/// exit 2). Tests install a throwing handler to exercise rejection
/// paths in-process; the handler must not return normally.
///
//===----------------------------------------------------------------------===//

#ifndef CBSVM_SUPPORT_ARGPARSER_H
#define CBSVM_SUPPORT_ARGPARSER_H

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cbs::support {

/// \p Text as a decimal number when all of it is one ("12"), else
/// nullopt: empty text, a sign, whitespace, trailing characters, or a
/// value past UINT64_MAX.
std::optional<uint64_t> parseWholeNumber(std::string_view Text);

class ArgParser {
public:
  /// Called with the error message; must exit or throw. If it does
  /// return, the parser exits(2) itself.
  using ErrorHandler = std::function<void(const std::string &)>;

  /// \p Argv[0] is the program (or subcommand) name and is skipped, so
  /// main's (Argc, Argv) works directly and a driver dispatching
  /// subcommands passes (Argc - 1, Argv + 1).
  ArgParser(int Argc, char *const *Argv);
  /// For tests: arguments only, no program name.
  explicit ArgParser(std::vector<std::string> Arguments);

  void setErrorHandler(ErrorHandler H) { Handler = std::move(H); }

  /// Next unconsumed argument that does not start with '-'; errors with
  /// "missing <What>" when there is none. Pull options before
  /// positionals: an option's value is indistinguishable from a
  /// positional until its name consumes it.
  std::string positional(const char *What);

  /// Value following \p Name, or \p Default when absent.
  std::string option(const char *Name, const char *Default);

  /// Strict decimal integer option: \p Default when absent, else the
  /// whole value must parse and lie in [Min, Max] (an empty value is an
  /// error, not the default).
  uint64_t optionUInt(const char *Name, uint64_t Default, uint64_t Min,
                      uint64_t Max);

  /// Strict decimal floating-point option: \p Default when absent,
  /// else the whole value must lex as a finite decimal number (no
  /// inf/nan/hex, no trailing garbage, not empty) in [Min, Max].
  /// Locale-independent: "0.9" parses as 0.9 regardless of LC_NUMERIC.
  double optionDouble(const char *Name, double Default, double Min,
                      double Max);

  /// True when \p Name is present (consumes it).
  bool flag(const char *Name);

  /// True when \p Name appears among the not-yet-consumed arguments.
  /// Does NOT consume: a validator can ask "was --stride given?" before
  /// (or instead of) pulling its value.
  bool present(const char *Name) const;

  /// Called after a command has pulled everything it understands;
  /// anything left over is a typo or an option of another command.
  void finish();

  /// Reports \p Message through the error handler.
  [[noreturn]] void fail(const std::string &Message);

private:
  std::vector<std::string> Args;
  std::vector<bool> Consumed;
  ErrorHandler Handler;
};

} // namespace cbs::support

#endif // CBSVM_SUPPORT_ARGPARSER_H
