/**
 * @file
 * Tests for the engine's strict JSON reader/writer: round trips,
 * integer preservation, escapes, and error reporting.
 */

#include <gtest/gtest.h>

#include "engine/json.hh"

namespace {

using namespace mixedproxy::engine;

TEST(Json, ParsesScalars)
{
    EXPECT_TRUE(json::parse("null")->isNull());
    EXPECT_TRUE(json::parse("true")->boolean);
    EXPECT_FALSE(json::parse("false")->boolean);
    EXPECT_EQ(json::parse("\"hi\"")->string, "hi");
    EXPECT_DOUBLE_EQ(json::parse("-2.5")->number, -2.5);
}

TEST(Json, PreservesUint64Exactly)
{
    auto doc = json::parse("18446744073709551615");
    ASSERT_TRUE(doc);
    EXPECT_TRUE(doc->isInteger);
    EXPECT_EQ(doc->integer, 18446744073709551615ull);
    EXPECT_EQ(doc->dump(), "18446744073709551615");

    // Signed / fractional / exponent forms are doubles, not integers.
    EXPECT_FALSE(json::parse("-3")->isInteger);
    EXPECT_FALSE(json::parse("3.0")->isInteger);
    EXPECT_FALSE(json::parse("3e2")->isInteger);
}

TEST(Json, IntegerOverflowIsADoubleNotSaturated)
{
    // One past UINT64_MAX used to read back as UINT64_MAX with
    // isInteger set; it is a plain double now, and uintOr ignores it.
    auto doc = json::parse("{\"n\":18446744073709551616}");
    ASSERT_TRUE(doc);
    const json::Value *n = doc->find("n");
    EXPECT_FALSE(n->isInteger);
    EXPECT_DOUBLE_EQ(n->number, 18446744073709551616.0);
    EXPECT_EQ(doc->uintOr("n", 7u), 7u);
    EXPECT_EQ(json::parse("{\"n\":1e30}")->uintOr("n", 7u), 7u);
    EXPECT_EQ(json::parse("{\"n\":-1}")->uintOr("n", 7u), 7u);
    EXPECT_EQ(json::parse("{\"n\":2.5}")->uintOr("n", 7u), 7u);

    // A double beyond the finite range has no spelling to dump back.
    std::string error;
    EXPECT_FALSE(json::parse("[1e999]", &error));
    EXPECT_EQ(error, "number out of range at offset 1");
    EXPECT_DOUBLE_EQ(json::parse("1e-400")->number, 0.0);
}

TEST(Json, ObjectAndArrayRoundTrip)
{
    const std::string text =
        "{\"a\":[1,2,3],\"b\":{\"c\":true},\"d\":\"x\"}";
    auto doc = json::parse(text);
    ASSERT_TRUE(doc);
    EXPECT_EQ(doc->dump(), text);
    ASSERT_TRUE(doc->find("a"));
    EXPECT_EQ(doc->find("a")->array.size(), 3u);
    EXPECT_TRUE(doc->find("b")->find("c")->boolean);
    EXPECT_EQ(doc->stringOr("d", ""), "x");
    EXPECT_EQ(doc->stringOr("missing", "fb"), "fb");
    EXPECT_TRUE(doc->boolOr("missing", true));
    EXPECT_EQ(doc->uintOr("missing", 9u), 9u);
}

TEST(Json, StringEscapesRoundTrip)
{
    auto doc = json::parse("\"a\\n\\t\\\"\\\\b\\u0041\"");
    ASSERT_TRUE(doc);
    EXPECT_EQ(doc->string, "a\n\t\"\\bA");
    auto again = json::parse(doc->dump());
    ASSERT_TRUE(again);
    EXPECT_EQ(again->string, doc->string);
}

TEST(Json, ControlCharactersAreEscapedOnDump)
{
    json::Value value = json::Value::makeString(std::string("a\x01z"));
    auto reparsed = json::parse(value.dump());
    ASSERT_TRUE(reparsed);
    EXPECT_EQ(reparsed->string, "a\x01z");
}

TEST(Json, RejectsMalformedInput)
{
    std::string error;
    EXPECT_FALSE(json::parse("", &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(json::parse("{", &error));
    EXPECT_FALSE(json::parse("{\"a\":}", &error));
    EXPECT_FALSE(json::parse("[1,]", &error));
    EXPECT_FALSE(json::parse("tru", &error));
    EXPECT_FALSE(json::parse("\"unterminated", &error));
    EXPECT_FALSE(json::parse("1 2", &error)); // trailing garbage
    EXPECT_FALSE(json::parse("{\"a\":1,}", &error));
    EXPECT_FALSE(json::parse("{\"a\":1} x", &error));
    EXPECT_FALSE(json::parse("nan", &error)); // not a JSON number
    EXPECT_FALSE(json::parse("[NaN]", &error));
    EXPECT_FALSE(json::parse("{\"a\":1,\"a\":2}", &error));
    EXPECT_EQ(error, "duplicate member \"a\" at offset 12");
    EXPECT_FALSE(json::parse("{\"a\" 1}", &error));
    EXPECT_EQ(error, "expected ':' at offset 5");
    EXPECT_FALSE(json::parse("[1 2]", &error));
    EXPECT_EQ(error, "expected ',' or ']' at offset 3");
    EXPECT_FALSE(json::parse("{\"a\":\"\\x\"}", &error));
    EXPECT_EQ(error, "unknown escape at offset 8");
}

TEST(Json, NestingDepthIsBounded)
{
    // Exactly kMaxDepth levels parse; one more is a syntax error with
    // the usual position note.
    const std::string ok = std::string(json::kMaxDepth, '[') +
                           std::string(json::kMaxDepth, ']');
    EXPECT_TRUE(json::parse(ok));
    std::string error;
    const std::string deep = std::string(json::kMaxDepth + 1, '[') +
                             std::string(json::kMaxDepth + 1, ']');
    EXPECT_FALSE(json::parse(deep, &error));
    EXPECT_NE(error.find("nesting deeper than"), std::string::npos)
        << error;
    EXPECT_NE(error.find("at offset " + std::to_string(json::kMaxDepth)),
              std::string::npos)
        << error;

    // Far past the limit (the crash this guards against), mixing
    // arrays and objects.
    std::string hostile;
    for (int i = 0; i < 200000; i++)
        hostile += i % 2 ? "{\"k\":" : "[";
    EXPECT_FALSE(json::parse(hostile, &error));
    EXPECT_FALSE(json::parse(std::string(400000, '['), &error));
}

TEST(Json, FindOnNonObjectIsNull)
{
    EXPECT_EQ(json::parse("[1]")->find("a"), nullptr);
    EXPECT_EQ(json::parse("3")->find("a"), nullptr);
}

} // namespace
