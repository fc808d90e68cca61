#include "reader.hh"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <istream>

namespace mixedproxy::json {

void
Reader::skipWhitespace()
{
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
        pos++;
    }
}

bool
Reader::fail(const std::string &what)
{
    if (_error.empty())
        _error = what + " at offset " + std::to_string(pos);
    return false;
}

Reader::Kind
Reader::peek()
{
    skipWhitespace();
    if (pos >= text.size()) {
        fail("unexpected end of input");
        return Kind::End;
    }
    switch (text[pos]) {
      case 'n': return Kind::Null;
      case 't': case 'f': return Kind::Bool;
      case '"': return Kind::String;
      case '[': return Kind::Array;
      case '{': return Kind::Object;
      default: return Kind::Number;
    }
}

bool
Reader::literal(std::string_view word)
{
    skipWhitespace();
    if (text.substr(pos, word.size()) != word)
        return fail("expected '" + std::string(word) + "'");
    pos += word.size();
    return true;
}

bool
Reader::readBool(bool &value)
{
    skipWhitespace();
    value = text.substr(pos, 1) == "t";
    if (value || text.substr(pos, 1) == "f")
        return literal(value ? "true" : "false");
    return fail("expected boolean");
}

bool
Reader::scanNumber(std::string_view &token)
{
    auto digits = [this] {
        const std::size_t start = pos;
        while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9')
            pos++;
        return pos - start;
    };
    const std::size_t start = pos;
    if (pos < text.size() && text[pos] == '-')
        pos++;
    if (digits() == 0)
        return fail("malformed number");
    if (pos < text.size() && text[pos] == '.') {
        pos++;
        if (digits() == 0)
            return fail("malformed fraction");
    }
    if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
        pos++;
        if (pos < text.size() && (text[pos] == '+' || text[pos] == '-'))
            pos++;
        if (digits() == 0)
            return fail("malformed exponent");
    }
    token = text.substr(start, pos - start);
    return true;
}

namespace {

/** Parse @p token, a plain non-negative integer, into @p value. */
bool
parseUint(std::string_view token, std::uint64_t &value)
{
    const char *end = token.data() + token.size();
    return token.find_first_of("-.eE") == token.npos &&
           std::from_chars(token.data(), end, value).ec == std::errc{};
}

} // namespace

bool
Reader::readNumber(Number &value)
{
    skipWhitespace();
    std::string_view token;
    if (!scanNumber(token))
        return false;
    value = Number{};
    if (parseUint(token, value.integer)) {
        value.isInteger = true;
        value.value = static_cast<double>(value.integer);
        return true;
    }
    const char *end = token.data() + token.size();
    if (std::from_chars(token.data(), end, value.value).ec == std::errc{})
        return true;
    // Out of double range: an underflow rounds (to zero or a subnormal,
    // as strtod does); an overflow has no JSON spelling to dump back.
    value.value = std::strtod(std::string(token).c_str(), nullptr);
    if (std::isinf(value.value)) {
        pos -= token.size();
        return fail("number out of range");
    }
    return true;
}

bool
Reader::readUint(std::uint64_t &value)
{
    skipWhitespace();
    // One pass: the digits, then no fraction or exponent may follow.
    const char *begin = text.data() + pos;
    const char *end = text.data() + text.size();
    auto [next, ec] = std::from_chars(begin, end, value);
    if (ec != std::errc{} ||
        (next != end && (*next == '.' || *next == 'e' || *next == 'E')))
        return fail("expected unsigned integer");
    pos += static_cast<std::size_t>(next - begin);
    return true;
}

bool
Reader::decodeEscape()
{
    static constexpr std::string_view kEscapes = "\"\\/bfnrt";
    static constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";
    if (pos + 1 >= text.size())
        return fail("unterminated escape");
    const char e = text[pos + 1];
    pos += 2;
    if (const std::size_t i = kEscapes.find(e); i != kEscapes.npos) {
        scratch += kDecoded[i];
        return true;
    }
    if (e != 'u')
        return fail("unknown escape");
    if (pos + 4 > text.size())
        return fail("truncated \\u escape");
    unsigned code = 0;
    const char *digits = text.data() + pos;
    if (std::from_chars(digits, digits + 4, code, 16).ptr != digits + 4)
        return fail("bad \\u escape digit");
    pos += 4;
    // UTF-8 encode the BMP code point.
    if (code < 0x80) {
        scratch += static_cast<char>(code);
    } else if (code < 0x800) {
        scratch += static_cast<char>(0xC0 | (code >> 6));
        scratch += static_cast<char>(0x80 | (code & 0x3F));
    } else {
        scratch += static_cast<char>(0xE0 | (code >> 12));
        scratch += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
        scratch += static_cast<char>(0x80 | (code & 0x3F));
    }
    return true;
}

bool
Reader::readString(std::string_view &value)
{
    skipWhitespace();
    if (pos >= text.size() || text[pos] != '"')
        return fail("expected string");
    // Runs without escapes are views of the input; a string with an
    // escape is assembled, run by run, in the scratch buffer.
    auto plain = [](unsigned char c) {
        return c >= 0x20 && c != '"' && c != '\\';
    };
    bool escaped = false;
    for (std::size_t run = ++pos;; run = pos) {
        while (pos < text.size() && plain(text[pos]))
            pos++;
        if (pos == text.size())
            return fail("unterminated string");
        if (text[pos] == '"') {
            value = text.substr(run, pos++ - run);
            if (escaped)
                value = scratch.append(value);
            return true;
        }
        if (text[pos] != '\\')
            return fail("unescaped control character in string");
        if (!escaped)
            scratch.clear();
        escaped = true;
        scratch.append(text.substr(run, pos - run));
        if (!decodeEscape())
            return false;
    }
}

bool
Reader::open(char bracket)
{
    skipWhitespace();
    if (pos >= text.size() || text[pos] != bracket)
        return fail(std::string("expected '") + bracket + "'");
    // Each nesting level costs the caller a native stack frame; cap it
    // so a hostile document is a syntax error, not a crash.
    if (depth == kMaxDepth)
        return fail("nesting deeper than " + std::to_string(kMaxDepth));
    depth++;
    pos++;
    first = true;
    return true;
}

bool
Reader::more(char close, const char *expected, const char *unterminated)
{
    skipWhitespace();
    const bool leading = first;
    first = false;
    if (pos < text.size() && text[pos] == close) {
        pos++;
        depth--;
        return false;
    }
    if (leading)
        return true;
    if (pos >= text.size())
        return fail(unterminated);
    if (text[pos] != ',')
        return fail(expected);
    pos++;
    return true;
}

bool
Reader::nextMember(std::string_view &name)
{
    if (!more('}', "expected ',' or '}'", "unterminated object"))
        return false;
    skipWhitespace();
    if (pos >= text.size() || text[pos] != '"')
        return fail("expected member name");
    if (!readString(name))
        return false;
    skipWhitespace();
    if (pos >= text.size() || text[pos] != ':')
        return fail("expected ':'");
    pos++;
    return true;
}

bool
Reader::nextElement()
{
    return more(']', "expected ',' or ']'", "unterminated array");
}

bool
Reader::skipValue()
{
    bool flag;
    Number number;
    std::string_view view;
    switch (peek()) {
      case Kind::Null: return readNull();
      case Kind::Bool: return readBool(flag);
      case Kind::Number: return readNumber(number);
      case Kind::String: return readString(view);
      case Kind::Array:
        if (!beginArray())
            return false;
        while (nextElement()) {
            if (!skipValue())
                return false;
        }
        return !failed();
      case Kind::Object:
        if (!beginObject())
            return false;
        while (nextMember(view)) {
            if (!skipValue())
                return false;
        }
        return !failed();
      case Kind::End:
        break;
    }
    return false;
}

bool
Reader::atEnd()
{
    skipWhitespace();
    return pos == text.size();
}

LineStatus
readLine(std::istream &in, std::string &line, std::size_t cap)
{
    line.clear();
    bool tooLong = false;
    char chunk[16384];
    for (;;) {
        in.getline(chunk, sizeof chunk);
        std::size_t stored = static_cast<std::size_t>(in.gcount());
        // A full chunk with more of the line to come sets failbit
        // alone; end of input sets eofbit; otherwise the newline was
        // consumed and counted.
        const bool more = in.fail() && !in.eof() && !in.bad();
        const bool done = !in.fail() && !in.eof();
        if (done)
            stored--;
        if (more)
            in.clear();
        if (!tooLong && line.size() + stored > cap) {
            tooLong = true;
            std::string().swap(line);
        }
        if (!tooLong)
            line.append(chunk, stored);
        if (more)
            continue;
        if (tooLong)
            return LineStatus::TooLong;
        return done || !line.empty() ? LineStatus::Line : LineStatus::Eof;
    }
}

} // namespace mixedproxy::json
