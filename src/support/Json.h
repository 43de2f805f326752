//===- support/Json.h - Minimal JSON writer and parser ----------*- C++ -*-===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small dependency-free JSON layer used by the telemetry subsystem,
/// the bench binaries' machine-readable output mode, and the cbsvm CLI:
///
///  - JsonWriter: a streaming writer with explicit begin/end calls and
///    automatic comma placement. Output is deterministic: the same call
///    sequence always produces byte-identical text (numbers are printed
///    with fixed formatting, no locale involvement).
///  - JsonValue / parseJson: a recursive-descent parser for validation
///    and round-trip tests. Numbers keep their original lexeme so a
///    parse→write round trip is byte-exact; object member order is
///    preserved.
///  - writeText: the human-readable view of a parsed document, so a
///    tool renders its text output from the same document it writes as
///    JSON and the two cannot disagree.
///
/// This is not a general-purpose JSON library (no \\uXXXX decoding to
/// UTF-8, no streaming parse); it covers exactly what the repo's own
/// emitters produce plus enough validation to reject malformed files.
///
//===----------------------------------------------------------------------===//

#ifndef CBSVM_SUPPORT_JSON_H
#define CBSVM_SUPPORT_JSON_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cbs::json {

/// Escapes \p S for inclusion inside a JSON string literal (quotes not
/// included).
std::string escape(std::string_view S);

/// Streaming JSON writer. Usage:
/// \code
///   JsonWriter W;
///   W.beginObject();
///   W.key("cycles"); W.value(uint64_t(42));
///   W.key("edges"); W.beginArray(); W.value("a"); W.endArray();
///   W.endObject();
///   std::string Text = W.take();
/// \endcode
class JsonWriter {
public:
  void beginObject();
  void endObject();
  void beginArray();
  void endArray();

  /// Object member key; must be followed by exactly one value (or
  /// container).
  void key(std::string_view Name);

  void value(std::string_view S);
  void value(const char *S) { value(std::string_view(S)); }
  void value(uint64_t V);
  void value(int64_t V);
  void value(uint32_t V) { value(static_cast<uint64_t>(V)); }
  void value(int V) { value(static_cast<int64_t>(V)); }
  void value(double V);
  void value(bool V);
  void null();
  /// Emits \p Token verbatim as a value (caller guarantees it is valid
  /// JSON — used for round-tripping preserved number lexemes).
  void raw(std::string_view Token);

  /// Finishes and returns the document; the writer is left empty.
  std::string take();
  const std::string &str() const { return Out; }

private:
  void beforeValue();

  std::string Out;
  /// One entry per open container: true once the first element has been
  /// written (so the next one needs a comma).
  std::vector<bool> NeedComma;
  bool AfterKey = false;
};

/// A parsed JSON document node.
struct JsonValue {
  enum class Kind : uint8_t { Null, Bool, Number, String, Array, Object };

  Kind K = Kind::Null;
  bool BoolVal = false;
  double NumVal = 0;
  /// Original number lexeme (Kind::Number) or string contents
  /// (Kind::String, unescaped).
  std::string Str;
  std::vector<JsonValue> Elements;                       ///< Kind::Array
  std::vector<std::pair<std::string, JsonValue>> Members; ///< Kind::Object

  bool isObject() const { return K == Kind::Object; }
  bool isArray() const { return K == Kind::Array; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }

  /// Object member lookup; nullptr if absent or not an object.
  const JsonValue *find(std::string_view Name) const;
  /// Convenience: member's numeric value, or \p Default.
  double numberOr(std::string_view Name, double Default) const;
};

struct JsonParseResult {
  std::optional<JsonValue> Value;
  std::string Error; ///< empty on success; else "offset N: message"

  bool ok() const { return Value.has_value(); }
};

/// Parses one JSON document (trailing whitespace allowed, trailing
/// garbage is an error). Numbers follow the RFC 8259 grammar exactly.
/// Arrays and objects nested more than 256 levels deep are an error.
JsonParseResult parseJson(std::string_view Text);

/// True when all of \p Text is one RFC 8259 number lexeme, e.g. "-0.5"
/// or "1e5" but not "01", "1.", "+1", "inf" or "0x10" — the check
/// parseJson applies to every number.
bool isNumber(std::string_view Text);

/// Serializes \p V compactly. A parseJson→writeJson round trip of text
/// produced by JsonWriter is byte-identical.
std::string writeJson(const JsonValue &V);

/// Renders \p V as aligned text tables, one titled section per
/// container (the title is the dotted member path; the root has none):
///  - an object's scalar members form one two-column key/value table;
///    each non-scalar member becomes its own section after it;
///  - an array forms one table, one row per element, whose columns are
///    the first element's keys when it is an object;
///  - a scalar prints its JSON lexeme (numbers exactly as parsed,
///    strings escaped but unquoted); a container inside a table cell
///    prints its element count;
///  - empty objects and arrays print nothing.
/// Sections are separated by one blank line.
std::string writeText(const JsonValue &V);

} // namespace cbs::json

#endif // CBSVM_SUPPORT_JSON_H
