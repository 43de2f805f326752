//===- support/Json.cpp - Minimal JSON writer and parser ---------------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include "support/TablePrinter.h"

#include <cassert>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

using namespace cbs;
using namespace cbs::json;

//===----------------------------------------------------------------------===//
// Writer
//===----------------------------------------------------------------------===//

std::string json::escape(std::string_view S) {
  std::string Out;
  Out.reserve(S.size());
  for (unsigned char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (C < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof Buf, "\\u%04x", C);
        Out += Buf;
      } else {
        Out += static_cast<char>(C);
      }
    }
  }
  return Out;
}

void JsonWriter::beforeValue() {
  if (AfterKey) {
    AfterKey = false;
    return;
  }
  if (!NeedComma.empty()) {
    if (NeedComma.back())
      Out += ',';
    NeedComma.back() = true;
  }
}

void JsonWriter::beginObject() {
  beforeValue();
  Out += '{';
  NeedComma.push_back(false);
}

void JsonWriter::endObject() {
  assert(!NeedComma.empty() && "endObject with no open container");
  NeedComma.pop_back();
  Out += '}';
}

void JsonWriter::beginArray() {
  beforeValue();
  Out += '[';
  NeedComma.push_back(false);
}

void JsonWriter::endArray() {
  assert(!NeedComma.empty() && "endArray with no open container");
  NeedComma.pop_back();
  Out += ']';
}

void JsonWriter::key(std::string_view Name) {
  assert(!AfterKey && "key after key");
  if (!NeedComma.empty()) {
    if (NeedComma.back())
      Out += ',';
    NeedComma.back() = true;
  }
  Out += '"';
  Out += escape(Name);
  Out += "\":";
  AfterKey = true;
}

void JsonWriter::value(std::string_view S) {
  beforeValue();
  Out += '"';
  Out += escape(S);
  Out += '"';
}

void JsonWriter::value(uint64_t V) {
  beforeValue();
  char Buf[24];
  std::snprintf(Buf, sizeof Buf, "%" PRIu64, V);
  Out += Buf;
}

void JsonWriter::value(int64_t V) {
  beforeValue();
  char Buf[24];
  std::snprintf(Buf, sizeof Buf, "%" PRId64, V);
  Out += Buf;
}

void JsonWriter::value(double V) {
  beforeValue();
  // %.17g round-trips any double; trim to the shortest exact form the
  // snprintf family offers for stable, readable output.
  char Buf[40];
  std::snprintf(Buf, sizeof Buf, "%.17g", V);
  // Prefer a shorter representation when it reparses to the same value.
  for (int Prec = 1; Prec < 17; ++Prec) {
    char Short[40];
    std::snprintf(Short, sizeof Short, "%.*g", Prec, V);
    if (std::strtod(Short, nullptr) == V) {
      Out += Short;
      return;
    }
  }
  Out += Buf;
}

void JsonWriter::value(bool V) {
  beforeValue();
  Out += V ? "true" : "false";
}

void JsonWriter::null() {
  beforeValue();
  Out += "null";
}

void JsonWriter::raw(std::string_view Token) {
  beforeValue();
  Out += Token;
}

std::string JsonWriter::take() {
  assert(NeedComma.empty() && "document has unterminated containers");
  std::string Result = std::move(Out);
  Out.clear();
  AfterKey = false;
  return Result;
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

const JsonValue *JsonValue::find(std::string_view Name) const {
  if (K != Kind::Object)
    return nullptr;
  for (const auto &[MemberName, Value] : Members)
    if (MemberName == Name)
      return &Value;
  return nullptr;
}

double JsonValue::numberOr(std::string_view Name, double Default) const {
  const JsonValue *V = find(Name);
  return V && V->K == Kind::Number ? V->NumVal : Default;
}

namespace {

bool isDigit(char C) { return C >= '0' && C <= '9'; }

/// Length of the RFC 8259 number at the start of \p Text,
///   -? (0 | [1-9][0-9]*) (\.[0-9]+)? ([eE][+-]?[0-9]+)?
/// or 0 when \p Text does not start with a well-formed one ("", "-",
/// "01", "1.", "1e", "+1", ".5"). What follows the number is the
/// caller's business: "1-2" lexes as "1".
size_t lexNumber(std::string_view Text) {
  size_t Pos = 0, End = Text.size();
  auto digits = [&] {
    size_t Start = Pos;
    while (Pos < End && isDigit(Text[Pos]))
      ++Pos;
    return Pos - Start;
  };
  if (Pos < End && Text[Pos] == '-')
    ++Pos;
  if (Pos < End && Text[Pos] == '0') {
    ++Pos;
    if (Pos < End && isDigit(Text[Pos]))
      return 0; // Leading zero.
  } else if (digits() == 0) {
    return 0;
  }
  if (Pos < End && Text[Pos] == '.') {
    ++Pos;
    if (digits() == 0)
      return 0;
  }
  if (Pos < End && (Text[Pos] == 'e' || Text[Pos] == 'E')) {
    ++Pos;
    if (Pos < End && (Text[Pos] == '+' || Text[Pos] == '-'))
      ++Pos;
    if (digits() == 0)
      return 0;
  }
  return Pos;
}

class Parser {
public:
  explicit Parser(std::string_view Text) : Text(Text) {}

  JsonParseResult run() {
    JsonParseResult Result;
    JsonValue V;
    if (!parseValue(V)) {
      Result.Error = Error;
      return Result;
    }
    skipWs();
    if (Pos != Text.size()) {
      Result.Error = at("trailing characters after document");
      return Result;
    }
    Result.Value = std::move(V);
    return Result;
  }

private:
  std::string at(const std::string &Message) {
    return "offset " + std::to_string(Pos) + ": " + Message;
  }

  bool fail(const std::string &Message) {
    if (Error.empty())
      Error = at(Message);
    return false;
  }

  void skipWs() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool consume(char C) {
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool parseValue(JsonValue &V) {
    skipWs();
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    switch (Text[Pos]) {
    case '{':
    case '[': {
      // Each level recurses, so unbounded input nesting would exhaust
      // the stack; the repo's own documents nest under ten levels.
      if (Depth == MaxDepth)
        return fail("nesting deeper than " + std::to_string(MaxDepth) +
                    " levels");
      ++Depth;
      bool Ok = Text[Pos] == '{' ? parseObject(V) : parseArray(V);
      --Depth;
      return Ok;
    }
    case '"':
      V.K = JsonValue::Kind::String;
      return parseString(V.Str);
    case 't':
      return parseLiteral("true", [&] {
        V.K = JsonValue::Kind::Bool;
        V.BoolVal = true;
      });
    case 'f':
      return parseLiteral("false", [&] {
        V.K = JsonValue::Kind::Bool;
        V.BoolVal = false;
      });
    case 'n':
      return parseLiteral("null", [&] { V.K = JsonValue::Kind::Null; });
    default:
      return parseNumber(V);
    }
  }

  template <typename Fn> bool parseLiteral(std::string_view Lit, Fn Apply) {
    if (Text.substr(Pos, Lit.size()) != Lit)
      return fail("invalid literal");
    Pos += Lit.size();
    Apply();
    return true;
  }

  bool parseNumber(JsonValue &V) {
    size_t Len = lexNumber(Text.substr(Pos));
    if (Len == 0)
      return fail("invalid number");
    V.K = JsonValue::Kind::Number;
    V.Str = std::string(Text.substr(Pos, Len));
    V.NumVal = std::strtod(V.Str.c_str(), nullptr);
    Pos += Len;
    return true;
  }

  bool parseString(std::string &Out) {
    if (!consume('"'))
      return fail("expected '\"'");
    while (Pos < Text.size()) {
      char C = Text[Pos++];
      if (C == '"')
        return true;
      if (static_cast<unsigned char>(C) < 0x20)
        return fail("unescaped control character in string");
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (Pos >= Text.size())
        return fail("unterminated escape");
      char E = Text[Pos++];
      switch (E) {
      case '"':
      case '\\':
      case '/':
        Out += E;
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'u': {
        if (Pos + 4 > Text.size())
          return fail("truncated \\u escape");
        unsigned Code = 0;
        for (int I = 0; I != 4; ++I) {
          char H = Text[Pos++];
          Code <<= 4;
          if (H >= '0' && H <= '9')
            Code |= static_cast<unsigned>(H - '0');
          else if (H >= 'a' && H <= 'f')
            Code |= static_cast<unsigned>(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            Code |= static_cast<unsigned>(H - 'A' + 10);
          else
            return fail("invalid \\u escape");
        }
        // The writer only emits \u00XX for control bytes; decode that
        // range and reject anything needing real UTF-16 handling.
        if (Code > 0xFF)
          return fail("\\u escape above U+00FF unsupported");
        Out += static_cast<char>(Code);
        break;
      }
      default:
        return fail("invalid escape character");
      }
    }
    return fail("unterminated string");
  }

  bool parseObject(JsonValue &V) {
    consume('{');
    V.K = JsonValue::Kind::Object;
    skipWs();
    if (consume('}'))
      return true;
    while (true) {
      skipWs();
      std::string Name;
      if (!parseString(Name))
        return false;
      skipWs();
      if (!consume(':'))
        return fail("expected ':' in object");
      JsonValue Member;
      if (!parseValue(Member))
        return false;
      V.Members.emplace_back(std::move(Name), std::move(Member));
      skipWs();
      if (consume(','))
        continue;
      if (consume('}'))
        return true;
      return fail("expected ',' or '}' in object");
    }
  }

  bool parseArray(JsonValue &V) {
    consume('[');
    V.K = JsonValue::Kind::Array;
    skipWs();
    if (consume(']'))
      return true;
    while (true) {
      JsonValue Element;
      if (!parseValue(Element))
        return false;
      V.Elements.push_back(std::move(Element));
      skipWs();
      if (consume(','))
        continue;
      if (consume(']'))
        return true;
      return fail("expected ',' or ']' in array");
    }
  }

  static constexpr unsigned MaxDepth = 256;

  std::string_view Text;
  size_t Pos = 0;
  unsigned Depth = 0;
  std::string Error;
};

void writeValue(const JsonValue &V, JsonWriter &W) {
  switch (V.K) {
  case JsonValue::Kind::Null:
    W.null();
    break;
  case JsonValue::Kind::Bool:
    W.value(V.BoolVal);
    break;
  case JsonValue::Kind::Number:
    W.raw(V.Str); // preserved lexeme: byte-exact round trip
    break;
  case JsonValue::Kind::String:
    W.value(V.Str);
    break;
  case JsonValue::Kind::Array:
    W.beginArray();
    for (const JsonValue &E : V.Elements)
      writeValue(E, W);
    W.endArray();
    break;
  case JsonValue::Kind::Object:
    W.beginObject();
    for (const auto &[Name, Member] : V.Members) {
      W.key(Name);
      writeValue(Member, W);
    }
    W.endObject();
    break;
  }
}

} // namespace

bool json::isNumber(std::string_view Text) {
  return !Text.empty() && lexNumber(Text) == Text.size();
}

JsonParseResult json::parseJson(std::string_view Text) {
  return Parser(Text).run();
}

std::string json::writeJson(const JsonValue &V) {
  JsonWriter W;
  writeValue(V, W);
  return W.take();
}

//===----------------------------------------------------------------------===//
// Text view
//===----------------------------------------------------------------------===//

namespace {

bool isContainer(const JsonValue &V) { return V.isArray() || V.isObject(); }

/// A scalar's lexeme; a container (only ever a table cell) prints its
/// element count.
std::string cellText(const JsonValue &V) {
  switch (V.K) {
  case JsonValue::Kind::Null:
    return "null";
  case JsonValue::Kind::Bool:
    return V.BoolVal ? "true" : "false";
  case JsonValue::Kind::Number:
    return V.Str;
  case JsonValue::Kind::String:
    return escape(V.Str);
  case JsonValue::Kind::Array:
    return std::to_string(V.Elements.size());
  case JsonValue::Kind::Object:
    return std::to_string(V.Members.size());
  }
  return {};
}

void appendSection(std::string &Out, const std::string &Path,
                   const std::string &Body) {
  if (Path.empty() && Body.empty())
    return;
  if (!Out.empty())
    Out += '\n';
  if (!Path.empty())
    Out += Path + ":\n";
  Out += Body;
}

void writeSection(const std::string &Path, const JsonValue &V,
                  std::string &Out) {
  if (V.isObject()) {
    if (V.Members.empty())
      return;
    TablePrinter Scalars;
    bool AnyScalar = false;
    for (const auto &[Name, Member] : V.Members)
      if (!isContainer(Member)) {
        Scalars.addRow({Name, cellText(Member)});
        AnyScalar = true;
      }
    appendSection(Out, Path, AnyScalar ? Scalars.render() : std::string());
    for (const auto &[Name, Member] : V.Members)
      if (isContainer(Member))
        writeSection(Path.empty() ? Name : Path + "." + Name, Member, Out);
    return;
  }
  if (V.isArray()) {
    if (V.Elements.empty())
      return;
    std::vector<std::string> Columns;
    if (V.Elements.front().isObject())
      for (const auto &[Name, Member] : V.Elements.front().Members)
        Columns.push_back(Name);
    TablePrinter Table;
    Table.setHeader(Columns);
    for (const JsonValue &E : V.Elements) {
      std::vector<std::string> Row;
      if (!E.isObject()) {
        Row.push_back(cellText(E));
      } else {
        for (const std::string &Column : Columns) {
          const JsonValue *Cell = E.find(Column);
          Row.push_back(Cell ? cellText(*Cell) : std::string());
        }
      }
      Table.addRow(std::move(Row));
    }
    appendSection(Out, Path, Table.render());
    return;
  }
  appendSection(Out, Path, cellText(V) + "\n");
}

} // namespace

std::string json::writeText(const JsonValue &V) {
  std::string Out;
  writeSection("", V, Out);
  return Out;
}
