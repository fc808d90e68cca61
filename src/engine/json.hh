/**
 * @file
 * A minimal strict JSON reader/writer for the engine's wire surfaces:
 * the daemon's line-delimited request/response protocol
 * (engine/service.hh) and the on-disk verdict store (engine/cache.hh).
 *
 * This is the one place the library parses JSON; everything else only
 * emits (obs/report.hh). Hand-rolled to keep the zero-dependency
 * constraint. The grammar is RFC 8259 minus surrogate-pair decoding
 * (\uXXXX escapes outside the BMP round-trip as-is); numbers retain a
 * uint64 view when the token is a plain non-negative integer, so
 * 64-bit counters survive the trip.
 */

#ifndef MIXEDPROXY_ENGINE_JSON_HH
#define MIXEDPROXY_ENGINE_JSON_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace mixedproxy::engine::json {

/** One JSON value; a tree of these is a parsed document. */
struct Value
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;

    /** Exact value when the source token was a non-negative integer. */
    std::uint64_t integer = 0;
    bool isInteger = false;

    std::string string;
    std::vector<Value> array;
    std::map<std::string, Value> object;

    bool isNull() const { return kind == Kind::Null; }
    bool isObject() const { return kind == Kind::Object; }
    bool isString() const { return kind == Kind::String; }

    /** Object member, or null if absent / not an object. */
    const Value *find(const std::string &name) const;

    /** Member string value with a default. */
    std::string stringOr(const std::string &name,
                         const std::string &fallback) const;

    /** Member boolean value with a default. */
    bool boolOr(const std::string &name, bool fallback) const;

    /** Member unsigned-integer value with a default. */
    std::uint64_t uintOr(const std::string &name,
                         std::uint64_t fallback) const;

    /** Serialize (stable member order; no insignificant whitespace). */
    std::string dump() const;

    static Value makeString(std::string text);
    static Value makeBool(bool value);
    static Value makeUint(std::uint64_t value);
    static Value makeDouble(double value);
    static Value makeObject();
    static Value makeArray();
};

/**
 * Deepest array/object nesting parse() accepts. The parser recurses
 * once per level, so an unbounded depth would let one request line
 * overflow the stack; no protocol message comes close to this.
 */
constexpr std::size_t kMaxDepth = 256;

/**
 * Parse one complete JSON document.
 *
 * @param error When non-null, receives a position-annotated message on
 *        failure.
 * @return The document, or nullptr on any syntax error, trailing
 *         garbage, a duplicate object member name, or nesting deeper
 *         than kMaxDepth.
 */
std::unique_ptr<Value> parse(const std::string &text,
                             std::string *error = nullptr);

} // namespace mixedproxy::engine::json

#endif // MIXEDPROXY_ENGINE_JSON_HH
