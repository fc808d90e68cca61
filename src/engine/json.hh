/**
 * @file
 * The JSON document model for the engine's wire surfaces: the daemon's
 * line-delimited request/response protocol (engine/service.hh), the
 * on-disk verdict store (engine/cache.hh) and stats files (perfcmp).
 *
 * parse() builds the document on the one JSON reader
 * (json/reader.hh), which the trace parser (conform/trace.hh) also
 * reads with: that reader is the one place the library parses JSON,
 * and it holds the nesting and line-size limits. dump() writes with
 * obs::jsonEscape, the escaper the stats and trace reports use.
 * Numbers retain a uint64 view when the token is a plain non-negative
 * integer that fits, so 64-bit counters survive the trip.
 */

#ifndef MIXEDPROXY_ENGINE_JSON_HH
#define MIXEDPROXY_ENGINE_JSON_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "json/reader.hh"

namespace mixedproxy {

namespace engine {
/** The document model lives beside the reader it is built on, in
 *  json::; engine code names that namespace engine::json. */
namespace json = mixedproxy::json;
} // namespace engine

namespace json {

/** One JSON value; a tree of these is a parsed document. */
struct Value
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;

    /** Exact value when the source token was a non-negative integer
     *  within uint64. */
    std::uint64_t integer = 0;
    bool isInteger = false;

    std::string string{};
    std::vector<Value> array{};
    std::map<std::string, Value> object{};

    bool isObject() const { return kind == Kind::Object; }
    bool isString() const { return kind == Kind::String; }

    /** Object member, or null if absent / not an object. */
    const Value *find(const std::string &name) const;

    /** Member string value with a default. */
    std::string stringOr(const std::string &name,
                         const std::string &fallback) const;

    /** Member boolean value with a default. */
    bool boolOr(const std::string &name, bool fallback) const;

    /** Member unsigned-integer value with a default; any other number
     *  (negative, fractional, above 2^64-1) gives the default too. */
    std::uint64_t uintOr(const std::string &name,
                         std::uint64_t fallback) const;

    /** Serialize (stable member order; no insignificant whitespace). */
    std::string dump() const;

    static Value makeString(std::string text)
    {
        return {.kind = Kind::String, .string = std::move(text)};
    }
    static Value makeBool(bool value)
    {
        return {.kind = Kind::Bool, .boolean = value};
    }
    static Value makeUint(std::uint64_t value)
    {
        return {.kind = Kind::Number,
                .number = static_cast<double>(value),
                .integer = value,
                .isInteger = true};
    }
    static Value makeDouble(double value)
    {
        return {.kind = Kind::Number, .number = value};
    }
    static Value makeObject() { return {.kind = Kind::Object}; }
    static Value makeArray() { return {.kind = Kind::Array}; }
};

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

} // namespace json
} // namespace mixedproxy

#endif // MIXEDPROXY_ENGINE_JSON_HH
