/**
 * @file
 * Tests for the shared JSON pull reader: zero-copy strings, escapes,
 * typed reads, validating skips, the depth limit and the bounded line
 * read.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <string_view>

#include "json/reader.hh"

namespace {

using namespace mixedproxy::json;

TEST(JsonReader, PlainStringsAreViewsOfTheInput)
{
    const std::string text = R"({"key":"value","esc":"a\tb"})";
    Reader in(text);
    std::string_view name, value;
    ASSERT_TRUE(in.beginObject());
    ASSERT_TRUE(in.nextMember(name));
    EXPECT_EQ(name, "key");
    EXPECT_GE(name.data(), text.data());
    EXPECT_LT(name.data(), text.data() + text.size());
    ASSERT_TRUE(in.readString(value));
    EXPECT_EQ(value, "value");
    EXPECT_GE(value.data(), text.data());
    EXPECT_LT(value.data(), text.data() + text.size());

    // An escape decodes into the reader's own buffer.
    ASSERT_TRUE(in.nextMember(name));
    ASSERT_TRUE(in.readString(value));
    EXPECT_EQ(value, "a\tb");
    EXPECT_FALSE(in.nextMember(name));
    EXPECT_FALSE(in.failed());
    EXPECT_TRUE(in.finish());
}

TEST(JsonReader, ReadUintAcceptsOnlyPlainUnsignedIntegers)
{
    std::uint64_t value = 0;
    EXPECT_TRUE(Reader("18446744073709551615").readUint(value));
    EXPECT_EQ(value, 18446744073709551615ull);
    for (const char *bad : {"18446744073709551616", "-1", "1.0", "1e3",
                            "\"1\"", "x", ""}) {
        Reader in(bad);
        EXPECT_FALSE(in.readUint(value)) << bad;
        EXPECT_EQ(in.error(), "expected unsigned integer at offset 0")
            << bad;
    }
}

TEST(JsonReader, ReadNumberKeepsExactIntegers)
{
    Number number;
    ASSERT_TRUE(Reader("12345678901234567").readNumber(number));
    EXPECT_TRUE(number.isInteger);
    EXPECT_EQ(number.integer, 12345678901234567u);
    ASSERT_TRUE(Reader("-2.5e1").readNumber(number));
    EXPECT_FALSE(number.isInteger);
    EXPECT_DOUBLE_EQ(number.value, -25.0);
}

TEST(JsonReader, SkipValueValidates)
{
    Reader good(R"([1,{"a":[true,null,"x\u0041"]},-0.5e-3] )");
    EXPECT_TRUE(good.skipValue());
    EXPECT_TRUE(good.finish());

    for (const char *bad : {"[1,}]", "{\"a\" 1}", "[1 2]", "garbage",
                            "{\"a\":tru}", "[\"\\q\"]", "[", "{\"a\":1,}"}) {
        Reader in(bad);
        EXPECT_FALSE(in.skipValue() && in.finish()) << bad;
        EXPECT_TRUE(in.failed()) << bad;
    }
}

TEST(JsonReader, DepthIsBoundedForEveryCaller)
{
    const std::string ok = std::string(kMaxDepth, '[') +
                           std::string(kMaxDepth, ']');
    EXPECT_TRUE(Reader(ok).skipValue());
    const std::string tooDeep(kMaxDepth + 1, '[');
    Reader deep(tooDeep);
    EXPECT_FALSE(deep.skipValue());
    EXPECT_EQ(deep.error(), "nesting deeper than 256 at offset 256");
}

TEST(JsonReader, ReadLineHoldsAtMostTheCap)
{
    std::istringstream in("abcd\n"      // exactly the cap
                          "abcde\n"     // one byte over
                          "\n"          // empty
                          "0123456789abcdefghij\n"
                          "ok\n"
                          "tail");      // no final newline
    std::string line;
    EXPECT_EQ(readLine(in, line, 4), LineStatus::Line);
    EXPECT_EQ(line, "abcd");
    EXPECT_EQ(readLine(in, line, 4), LineStatus::TooLong);
    EXPECT_TRUE(line.empty());
    EXPECT_EQ(readLine(in, line, 4), LineStatus::Line);
    EXPECT_TRUE(line.empty());
    EXPECT_EQ(readLine(in, line, 4), LineStatus::TooLong);
    EXPECT_EQ(readLine(in, line, 4), LineStatus::Line);
    EXPECT_EQ(line, "ok");
    EXPECT_EQ(readLine(in, line, 4), LineStatus::Line);
    EXPECT_EQ(line, "tail");
    EXPECT_EQ(readLine(in, line, 4), LineStatus::Eof);
}

TEST(JsonReader, ReadLineSpansChunks)
{
    // Lines longer than the internal read chunk arrive whole.
    const std::string longLine(100000, 'q');
    std::istringstream in(longLine + "\n" + longLine);
    std::string line;
    EXPECT_EQ(readLine(in, line), LineStatus::Line);
    EXPECT_EQ(line, longLine);
    EXPECT_EQ(readLine(in, line), LineStatus::Line);
    EXPECT_EQ(line, longLine);
    EXPECT_EQ(readLine(in, line), LineStatus::Eof);
    std::istringstream over(longLine + "\nok\n");
    EXPECT_EQ(readLine(over, line, 99999), LineStatus::TooLong);
    EXPECT_EQ(readLine(over, line, 99999), LineStatus::Line);
    EXPECT_EQ(line, "ok");
}

} // namespace
