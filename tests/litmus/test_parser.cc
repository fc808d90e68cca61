/**
 * @file
 * Unit tests for the litmus text-format parser and the LitmusTest /
 * LitmusBuilder structural validation.
 */

#include <gtest/gtest.h>

#include "litmus/parser.hh"
#include "litmus/test.hh"
#include "relation/error.hh"

namespace {

using namespace mixedproxy::litmus;
using mixedproxy::FatalError;

const char *kFig8a = R"(
# Fig 8a from the paper
name: fig8a
alias rd2 rd1

thread t0 cta 0 gpu 0:
  st.global.u32 [rd1], 42
  fence.proxy.alias
  ld.global.u32 r3, [rd2]

require: t0.r3 == 42
)";

TEST(Parser, ParsesFig8a)
{
    LitmusTest test = parseTest(kFig8a);
    EXPECT_EQ(test.name(), "fig8a");
    ASSERT_EQ(test.threads().size(), 1u);
    const Thread &t0 = test.threads()[0];
    EXPECT_EQ(t0.name, "t0");
    EXPECT_EQ(t0.cta, 0);
    EXPECT_EQ(t0.gpu, 0);
    ASSERT_EQ(t0.instructions.size(), 3u);
    EXPECT_EQ(t0.instructions[1].opcode, Opcode::FenceProxy);
    EXPECT_EQ(test.locationOf("rd2"), "rd1");
    EXPECT_EQ(test.locationOf("rd1"), "rd1");
    ASSERT_EQ(test.assertions().size(), 1u);
    EXPECT_EQ(test.assertions()[0].kind, AssertKind::Require);
}

TEST(Parser, DefaultPlacement)
{
    LitmusTest test = parseTest(R"(
name: defaults
thread a:
  st.global.u32 [x], 1
thread b:
  ld.global.u32 r1, [x]
permit: b.r1 == 1
)");
    EXPECT_EQ(test.threads()[0].cta, 0);
    EXPECT_EQ(test.threads()[1].cta, 1);
    EXPECT_EQ(test.threads()[0].gpu, 0);
    EXPECT_EQ(test.threads()[1].gpu, 0);
}

TEST(Parser, InitValues)
{
    LitmusTest test = parseTest(R"(
name: init
init x 7
init y 0x10
thread t0:
  ld.global.u32 r1, [x]
permit: t0.r1 == 7
)");
    EXPECT_EQ(test.initOf("x"), 7u);
    EXPECT_EQ(test.initOf("y"), 16u);
    EXPECT_EQ(test.initOf("unset"), 0u);
}

TEST(Parser, InitThroughAlias)
{
    LitmusTest test = parseTest(R"(
name: init_alias
alias b a
init b 9
thread t0:
  ld.global.u32 r1, [a]
permit: t0.r1 == 9
)");
    EXPECT_EQ(test.initOf("a"), 9u);
}

TEST(Parser, CommentsAndBlankLines)
{
    LitmusTest test = parseTest(R"(
# leading comment
name: comments   # trailing comment

// C++-style comment
thread t0:
  ld.global.u32 r1, [x]   # comment after instruction

permit: t0.r1 == 0
)");
    EXPECT_EQ(test.name(), "comments");
    EXPECT_EQ(test.threads()[0].instructions.size(), 1u);
}

TEST(Parser, AllAssertionKinds)
{
    LitmusTest test = parseTest(R"(
name: kinds
thread t0:
  ld.global.u32 r1, [x]
require: t0.r1 == 0
permit: t0.r1 == 0
forbid: t0.r1 == 1
)");
    ASSERT_EQ(test.assertions().size(), 3u);
    EXPECT_EQ(test.assertions()[0].kind, AssertKind::Require);
    EXPECT_EQ(test.assertions()[1].kind, AssertKind::Permit);
    EXPECT_EQ(test.assertions()[2].kind, AssertKind::Forbid);
}

TEST(Parser, Errors)
{
    // Missing name.
    EXPECT_THROW(parseTest("thread t0:\n ld.global.u32 r1, [x]\n"),
                 FatalError);
    // Instruction outside a thread.
    EXPECT_THROW(parseTest("name: x\nld.global.u32 r1, [x]\n"),
                 FatalError);
    // Header missing colon.
    EXPECT_THROW(parseTest("name: x\nthread t0\n"), FatalError);
    // Bad attribute.
    EXPECT_THROW(parseTest("name: x\nthread t0 smx 3:\n"), FatalError);
    // Odd attribute list.
    EXPECT_THROW(parseTest("name: x\nthread t0 cta:\n"), FatalError);
    // Empty thread.
    EXPECT_THROW(
        parseTest("name: x\nthread t0:\nthread t1:\n ld.global.u32 "
                  "r1, [x]\n"),
        FatalError);
    // Alias arity.
    EXPECT_THROW(parseTest("name: x\nalias a\n"), FatalError);
    // Init arity and value.
    EXPECT_THROW(parseTest("name: x\ninit a\n"), FatalError);
    EXPECT_THROW(parseTest("name: x\ninit a zz\n"), FatalError);
}

TEST(Parser, ErrorsCarryLineNumbers)
{
    try {
        parseTest("name: x\n\nthread t0:\n  frobnicate r1\n");
        FAIL() << "expected FatalError";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("line 4"),
                  std::string::npos)
            << err.what();
    }
}

TEST(Parser, RoundTripThroughToString)
{
    LitmusTest test = parseTest(kFig8a);
    LitmusTest again = parseTest(test.toString());
    EXPECT_EQ(again.name(), test.name());
    EXPECT_EQ(again.threads().size(), test.threads().size());
    EXPECT_EQ(again.threads()[0].instructions.size(),
              test.threads()[0].instructions.size());
    EXPECT_EQ(again.locationOf("rd2"), "rd1");
    EXPECT_EQ(again.assertions().size(), test.assertions().size());
}

TEST(LitmusTest, ValidationCatchesRegisterMisuse)
{
    // Register used before definition.
    LitmusBuilder undef("undef");
    EXPECT_THROW(undef.thread("t0", 0, 0, {"st.global.u32 [x], r1"})
                     .build(),
                 FatalError);

    // Register defined twice.
    LitmusBuilder redef("redef");
    EXPECT_THROW(redef
                     .thread("t0", 0, 0,
                             {"ld.global.u32 r1, [x]",
                              "ld.global.u32 r1, [y]"})
                     .build(),
                 FatalError);
}

TEST(LitmusTest, ValidationCatchesPlacementConflicts)
{
    LitmusBuilder b("conflict");
    b.thread("t0", 0, 0, {"ld.global.u32 r1, [x]"});
    b.thread("t1", 0, 1, {"ld.global.u32 r1, [x]"}); // CTA 0 on GPU 1
    EXPECT_THROW(b.build(), FatalError);
}

TEST(LitmusTest, ValidationCatchesDuplicateThreadNames)
{
    LitmusBuilder b("dup");
    b.thread("t0", 0, 0, {"ld.global.u32 r1, [x]"});
    b.thread("t0", 1, 0, {"ld.global.u32 r1, [x]"});
    EXPECT_THROW(b.build(), FatalError);
}

TEST(LitmusTest, ValidationCatchesMixedSizes)
{
    LitmusBuilder b("mixed");
    b.thread("t0", 0, 0, {"st.global.u32 [x], 1"});
    b.thread("t1", 1, 0, {"ld.global.u64 r1, [x]"});
    EXPECT_THROW(b.build(), FatalError);
}

TEST(LitmusTest, AliasBookkeeping)
{
    LitmusTest test("aliases");
    test.addAlias("b", "a");
    test.addAlias("c", "b"); // chains resolve to the root
    EXPECT_EQ(test.locationOf("c"), "a");
    EXPECT_THROW(test.addAlias("a", "a"), FatalError);
    // Re-aliasing to the same class is idempotent.
    test.addAlias("c", "a");
    // But re-aliasing to a different class is an error.
    test.addAlias("e", "d");
    EXPECT_THROW(test.addAlias("c", "d"), FatalError);
}

TEST(LitmusTest, AddressesOf)
{
    LitmusTest test = parseTest(kFig8a);
    auto vas = test.addressesOf("rd1");
    ASSERT_EQ(vas.size(), 2u);
    EXPECT_EQ(vas[0], "rd1");
    EXPECT_EQ(vas[1], "rd2");
}

TEST(LitmusTest, InstructionCount)
{
    LitmusTest test = parseTest(kFig8a);
    EXPECT_EQ(test.instructionCount(), 3u);
}

} // namespace
