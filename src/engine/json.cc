#include "json.hh"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace mixedproxy::engine::json {

namespace {

/** Recursive-descent parser over a string, tracking position. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text(text) {}

    std::unique_ptr<Value> run(std::string *error)
    {
        Value value;
        if (!parseValue(value)) {
            if (error)
                *error = message;
            return nullptr;
        }
        skipWhitespace();
        if (pos != text.size()) {
            fail("trailing characters after document");
            if (error)
                *error = message;
            return nullptr;
        }
        return std::make_unique<Value>(std::move(value));
    }

  private:
    bool fail(const std::string &what)
    {
        if (message.empty()) {
            message = what + " at offset " + std::to_string(pos);
        }
        return false;
    }

    void skipWhitespace()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r')) {
            pos++;
        }
    }

    bool literal(const char *word, std::size_t length)
    {
        if (text.compare(pos, length, word) != 0)
            return fail(std::string("expected '") + word + "'");
        pos += length;
        return true;
    }

    bool parseValue(Value &out)
    {
        skipWhitespace();
        if (pos >= text.size())
            return fail("unexpected end of input");
        switch (text[pos]) {
          case 'n':
            out.kind = Value::Kind::Null;
            return literal("null", 4);
          case 't':
            out.kind = Value::Kind::Bool;
            out.boolean = true;
            return literal("true", 4);
          case 'f':
            out.kind = Value::Kind::Bool;
            out.boolean = false;
            return literal("false", 5);
          case '"':
            out.kind = Value::Kind::String;
            return parseString(out.string);
          case '[':
          case '{': {
            // Each nesting level costs a native stack frame; cap it so
            // a hostile document is a syntax error, not a crash.
            if (depth == kMaxDepth)
                return fail("nesting deeper than " +
                            std::to_string(kMaxDepth));
            depth++;
            const bool ok =
                text[pos] == '[' ? parseArray(out) : parseObject(out);
            depth--;
            return ok;
          }
          default:
            return parseNumber(out);
        }
    }

    bool parseString(std::string &out)
    {
        pos++; // opening quote
        out.clear();
        while (pos < text.size()) {
            unsigned char c = static_cast<unsigned char>(text[pos]);
            if (c == '"') {
                pos++;
                return true;
            }
            if (c == '\\') {
                if (pos + 1 >= text.size())
                    return fail("unterminated escape");
                char e = text[pos + 1];
                pos += 2;
                switch (e) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'n': out += '\n'; break;
                  case 'r': out += '\r'; break;
                  case 't': out += '\t'; break;
                  case 'u': {
                    if (pos + 4 > text.size())
                        return fail("truncated \\u escape");
                    unsigned code = 0;
                    for (int i = 0; i < 4; i++) {
                        char h = text[pos + static_cast<std::size_t>(i)];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            code |= static_cast<unsigned>(h - 'A' + 10);
                        else
                            return fail("bad \\u escape digit");
                    }
                    pos += 4;
                    // UTF-8 encode the BMP code point.
                    if (code < 0x80) {
                        out += static_cast<char>(code);
                    } else if (code < 0x800) {
                        out += static_cast<char>(0xC0 | (code >> 6));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    } else {
                        out += static_cast<char>(0xE0 | (code >> 12));
                        out += static_cast<char>(0x80 |
                                                 ((code >> 6) & 0x3F));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    }
                    break;
                  }
                  default:
                    return fail("unknown escape");
                }
                continue;
            }
            if (c < 0x20)
                return fail("unescaped control character in string");
            out += static_cast<char>(c);
            pos++;
        }
        return fail("unterminated string");
    }

    bool parseNumber(Value &out)
    {
        const std::size_t start = pos;
        bool negative = false;
        if (pos < text.size() && text[pos] == '-') {
            negative = true;
            pos++;
        }
        std::size_t digits = 0;
        while (pos < text.size() &&
               std::isdigit(static_cast<unsigned char>(text[pos]))) {
            pos++;
            digits++;
        }
        if (digits == 0)
            return fail("malformed number");
        bool integral = true;
        if (pos < text.size() && text[pos] == '.') {
            integral = false;
            pos++;
            std::size_t frac = 0;
            while (pos < text.size() &&
                   std::isdigit(
                       static_cast<unsigned char>(text[pos]))) {
                pos++;
                frac++;
            }
            if (frac == 0)
                return fail("malformed fraction");
        }
        if (pos < text.size() &&
            (text[pos] == 'e' || text[pos] == 'E')) {
            integral = false;
            pos++;
            if (pos < text.size() &&
                (text[pos] == '+' || text[pos] == '-')) {
                pos++;
            }
            std::size_t exp = 0;
            while (pos < text.size() &&
                   std::isdigit(
                       static_cast<unsigned char>(text[pos]))) {
                pos++;
                exp++;
            }
            if (exp == 0)
                return fail("malformed exponent");
        }
        const std::string token = text.substr(start, pos - start);
        out.kind = Value::Kind::Number;
        out.number = std::strtod(token.c_str(), nullptr);
        if (integral && !negative) {
            out.isInteger = true;
            out.integer = std::strtoull(token.c_str(), nullptr, 10);
        }
        return true;
    }

    bool parseArray(Value &out)
    {
        out.kind = Value::Kind::Array;
        pos++; // '['
        skipWhitespace();
        if (pos < text.size() && text[pos] == ']') {
            pos++;
            return true;
        }
        for (;;) {
            Value element;
            if (!parseValue(element))
                return false;
            out.array.push_back(std::move(element));
            skipWhitespace();
            if (pos >= text.size())
                return fail("unterminated array");
            if (text[pos] == ',') {
                pos++;
                continue;
            }
            if (text[pos] == ']') {
                pos++;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    bool parseObject(Value &out)
    {
        out.kind = Value::Kind::Object;
        pos++; // '{'
        skipWhitespace();
        if (pos < text.size() && text[pos] == '}') {
            pos++;
            return true;
        }
        for (;;) {
            skipWhitespace();
            if (pos >= text.size() || text[pos] != '"')
                return fail("expected member name");
            std::string name;
            if (!parseString(name))
                return false;
            skipWhitespace();
            if (pos >= text.size() || text[pos] != ':')
                return fail("expected ':'");
            pos++;
            Value member;
            if (!parseValue(member))
                return false;
            if (!out.object.emplace(name, std::move(member)).second)
                return fail("duplicate member \"" + name + "\"");
            skipWhitespace();
            if (pos >= text.size())
                return fail("unterminated object");
            if (text[pos] == ',') {
                pos++;
                continue;
            }
            if (text[pos] == '}') {
                pos++;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    const std::string &text;
    std::size_t pos = 0;
    std::size_t depth = 0; ///< open arrays and objects
    std::string message;
};

void
appendEscaped(std::ostringstream &os, const std::string &text)
{
    os << '"';
    for (unsigned char c : text) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\b': os << "\\b"; break;
          case '\f': os << "\\f"; break;
          case '\n': os << "\\n"; break;
          case '\r': os << "\\r"; break;
          case '\t': os << "\\t"; break;
          default:
            if (c < 0x20) {
                char buffer[8];
                std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
                os << buffer;
            } else {
                os << static_cast<char>(c);
            }
        }
    }
    os << '"';
}

void
dumpValue(std::ostringstream &os, const Value &value)
{
    switch (value.kind) {
      case Value::Kind::Null:
        os << "null";
        break;
      case Value::Kind::Bool:
        os << (value.boolean ? "true" : "false");
        break;
      case Value::Kind::Number:
        if (value.isInteger) {
            os << value.integer;
        } else {
            char buffer[32];
            std::snprintf(buffer, sizeof buffer, "%.17g", value.number);
            os << buffer;
        }
        break;
      case Value::Kind::String:
        appendEscaped(os, value.string);
        break;
      case Value::Kind::Array: {
        os << '[';
        bool first = true;
        for (const Value &element : value.array) {
            if (!first)
                os << ',';
            first = false;
            dumpValue(os, element);
        }
        os << ']';
        break;
      }
      case Value::Kind::Object: {
        os << '{';
        bool first = true;
        for (const auto &[name, member] : value.object) {
            if (!first)
                os << ',';
            first = false;
            appendEscaped(os, name);
            os << ':';
            dumpValue(os, member);
        }
        os << '}';
        break;
      }
    }
}

} // namespace

const Value *
Value::find(const std::string &name) const
{
    if (kind != Kind::Object)
        return nullptr;
    auto it = object.find(name);
    return it == object.end() ? nullptr : &it->second;
}

std::string
Value::stringOr(const std::string &name,
                const std::string &fallback) const
{
    const Value *member = find(name);
    return member && member->kind == Kind::String ? member->string
                                                  : fallback;
}

bool
Value::boolOr(const std::string &name, bool fallback) const
{
    const Value *member = find(name);
    return member && member->kind == Kind::Bool ? member->boolean
                                                : fallback;
}

std::uint64_t
Value::uintOr(const std::string &name, std::uint64_t fallback) const
{
    const Value *member = find(name);
    if (!member || member->kind != Kind::Number)
        return fallback;
    if (member->isInteger)
        return member->integer;
    return member->number < 0.0
               ? fallback
               : static_cast<std::uint64_t>(member->number);
}

std::string
Value::dump() const
{
    std::ostringstream os;
    dumpValue(os, *this);
    return os.str();
}

Value
Value::makeString(std::string text)
{
    Value v;
    v.kind = Kind::String;
    v.string = std::move(text);
    return v;
}

Value
Value::makeBool(bool value)
{
    Value v;
    v.kind = Kind::Bool;
    v.boolean = value;
    return v;
}

Value
Value::makeUint(std::uint64_t value)
{
    Value v;
    v.kind = Kind::Number;
    v.number = static_cast<double>(value);
    v.integer = value;
    v.isInteger = true;
    return v;
}

Value
Value::makeDouble(double value)
{
    Value v;
    v.kind = Kind::Number;
    v.number = value;
    return v;
}

Value
Value::makeObject()
{
    Value v;
    v.kind = Kind::Object;
    return v;
}

Value
Value::makeArray()
{
    Value v;
    v.kind = Kind::Array;
    return v;
}

std::unique_ptr<Value>
parse(const std::string &text, std::string *error)
{
    return Parser(text).run(error);
}

} // namespace mixedproxy::engine::json
