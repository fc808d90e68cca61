/**
 * @file
 * The one JSON reader: a pull reader over a std::string_view, shared by
 * the engine's DOM (engine/json.hh: daemon requests, verdict-cache
 * entries, stats files) and the `mixedproxy.trace.v1` line parser
 * (conform/trace.hh).
 *
 * The caller drives the grammar: peek() names the next value's kind,
 * and the read*() / begin*() / next*() calls consume it. Strings come
 * back as views into the input when they hold no escapes, so reading a
 * key or an identifier costs no allocation; numbers are converted with
 * std::from_chars. Every call returns false on malformed input and
 * leaves the first error, annotated "at offset N", in error(). The
 * limits every JSON surface shares (nesting depth, line size) live
 * here.
 *
 * The grammar is RFC 8259 with two lenient corners kept for
 * compatibility: integers may carry leading zeros, and \uXXXX escapes
 * are decoded as BMP code points (surrogate halves are not paired).
 * A leaf library: it depends on nothing else in the repository.
 */

#ifndef MIXEDPROXY_JSON_READER_HH
#define MIXEDPROXY_JSON_READER_HH

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace mixedproxy::json {

/**
 * Deepest array/object nesting the reader accepts. Readers built on it
 * recurse once per level, so an unbounded depth would let one request
 * line overflow the stack; no protocol message comes close to this.
 */
constexpr std::size_t kMaxDepth = 256;

/**
 * Longest line a line-delimited JSON surface (daemon requests, trace
 * lines) accepts, in bytes, newline excluded. readLine() holds at most
 * this much of one line in memory.
 */
constexpr std::size_t kMaxLineBytes = std::size_t{64} << 20;

/** A parsed JSON number. */
struct Number
{
    double value = 0.0;

    /** Exact value when the token is a non-negative integer that fits
     *  in 64 bits; isInteger is false for any other token. */
    std::uint64_t integer = 0;
    bool isInteger = false;
};

/** Pull reader over one JSON text. The text must outlive the reader. */
class Reader
{
  public:
    /** The kind of the next value; Number also covers any character
     *  that cannot start a value (readNumber() then reports it). */
    enum class Kind { Null, Bool, Number, String, Array, Object, End };

    explicit Reader(std::string_view text) : text(text) {}

    /**
     * Skip whitespace and classify the next value. End (with the error
     * "unexpected end of input") when nothing is left.
     */
    Kind peek();

    bool readNull() { return literal("null"); }
    bool readBool(bool &value);
    bool readNumber(Number &value);

    /** A number that must be a non-negative integer within uint64. */
    bool readUint(std::uint64_t &value);

    /**
     * A string, decoded. The view points into the input when the
     * string holds no escapes, else into a buffer the next readString
     * reuses.
     */
    bool readString(std::string_view &value);

    /** Consume '{'. Then call nextMember() until it returns false. */
    bool beginObject() { return open('{'); }

    /**
     * Advance inside the innermost open object: true when a member
     * follows (its name in @p name, the ':' consumed, the value next);
     * false on the closing '}' or on an error (see failed()).
     */
    bool nextMember(std::string_view &name);

    /** Consume '['. Then call nextElement() until it returns false. */
    bool beginArray() { return open('['); }

    /** Like nextMember() for the innermost open array. */
    bool nextElement();

    /** Consume and validate one value of any kind. */
    bool skipValue();

    /** True when only whitespace remains. */
    bool atEnd();

    /** atEnd(), or fail with "trailing characters after document". */
    bool finish()
    {
        return atEnd() || fail("trailing characters after document");
    }

    /** Record @p what at the current offset (the first error wins);
     *  returns false. */
    bool fail(const std::string &what);

    bool failed() const { return !_error.empty(); }
    const std::string &error() const { return _error; }

  private:
    void skipWhitespace();
    bool literal(std::string_view word);
    bool scanNumber(std::string_view &token);
    bool decodeEscape();
    bool open(char bracket);

    /**
     * Past an opening bracket or a value: true when an entry follows
     * (its ',' consumed), false on @p close (consumed) or an error.
     */
    bool more(char close, const char *expected, const char *unterminated);

    std::string_view text;
    std::size_t pos = 0;
    std::size_t depth = 0; ///< open arrays and objects
    bool first = false;    ///< just inside a '{' or '[' (no comma due)
    std::string scratch;   ///< decoded strings that held escapes
    std::string _error;
};

/** Outcome of readLine(). */
enum class LineStatus { Line, TooLong, Eof };

/**
 * Read one '\n'-terminated line (newline dropped) into @p line, holding
 * at most @p cap bytes of it. A longer line is discarded through its
 * newline and reported as TooLong with @p line empty; the stream is
 * then positioned at the next line.
 */
LineStatus readLine(std::istream &in, std::string &line,
                    std::size_t cap = kMaxLineBytes);

} // namespace mixedproxy::json

#endif // MIXEDPROXY_JSON_READER_HH
