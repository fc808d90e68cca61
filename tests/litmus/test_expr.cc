/**
 * @file
 * Unit tests for condition expressions and the condition parser.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "litmus/expr.hh"
#include "relation/error.hh"

namespace {

using namespace mixedproxy::litmus;
using mixedproxy::FatalError;
using mixedproxy::PanicError;

Outcome
sampleOutcome()
{
    Outcome o;
    o.registers["t0.r1"] = 1;
    o.registers["t1.r2"] = 42;
    o.memory["x"] = 7;
    return o;
}

TEST(Expr, LiteralAndReferences)
{
    Outcome o = sampleOutcome();
    EXPECT_EQ(Expr::literal(5)->evalValue(o), 5u);
    EXPECT_EQ(Expr::reg("t0", "r1")->evalValue(o), 1u);
    EXPECT_EQ(Expr::mem("x")->evalValue(o), 7u);
}

TEST(Expr, MissingReferencesThrow)
{
    Outcome o = sampleOutcome();
    EXPECT_THROW(Expr::reg("t9", "r9")->evalValue(o), FatalError);
    EXPECT_THROW(Expr::mem("nope")->evalValue(o), FatalError);
}

TEST(Expr, Comparisons)
{
    Outcome o = sampleOutcome();
    EXPECT_TRUE(
        Expr::eq(Expr::reg("t1", "r2"), Expr::literal(42))->evalBool(o));
    EXPECT_FALSE(
        Expr::eq(Expr::reg("t0", "r1"), Expr::literal(42))->evalBool(o));
    EXPECT_TRUE(
        Expr::ne(Expr::mem("x"), Expr::literal(0))->evalBool(o));
}

TEST(Expr, Connectives)
{
    Outcome o = sampleOutcome();
    auto t = Expr::eq(Expr::literal(1), Expr::literal(1));
    auto f = Expr::logicalNot(t);
    EXPECT_TRUE(Expr::logicalAnd(t, t)->evalBool(o));
    EXPECT_FALSE(Expr::logicalAnd(t, f)->evalBool(o));
    EXPECT_TRUE(Expr::logicalOr(f, t)->evalBool(o));
    EXPECT_FALSE(Expr::logicalOr(f, f)->evalBool(o));
    EXPECT_TRUE(Expr::logicalNot(f)->evalBool(o));
}

TEST(Expr, TypeDisciplineEnforced)
{
    auto t = Expr::eq(Expr::literal(1), Expr::literal(1));
    EXPECT_THROW(Expr::eq(t, Expr::literal(1)), PanicError);
    EXPECT_THROW(Expr::logicalAnd(Expr::literal(1), t), PanicError);
    EXPECT_THROW(Expr::logicalNot(Expr::literal(1)), PanicError);
    Outcome o = sampleOutcome();
    EXPECT_THROW(Expr::literal(1)->evalBool(o), PanicError);
    EXPECT_THROW(t->evalValue(o), PanicError);
}

TEST(ConditionParser, SimpleComparison)
{
    Outcome o = sampleOutcome();
    EXPECT_TRUE(parseCondition("t1.r2 == 42")->evalBool(o));
    EXPECT_FALSE(parseCondition("t1.r2 != 42")->evalBool(o));
    EXPECT_TRUE(parseCondition("[x] == 7")->evalBool(o));
}

TEST(ConditionParser, PrecedenceAndGrouping)
{
    Outcome o = sampleOutcome();
    // && binds tighter than ||.
    EXPECT_TRUE(
        parseCondition("t0.r1 == 0 && t1.r2 == 0 || [x] == 7")
            ->evalBool(o));
    EXPECT_FALSE(
        parseCondition("t0.r1 == 0 && (t1.r2 == 0 || [x] == 7)")
            ->evalBool(o));
}

TEST(ConditionParser, Negation)
{
    Outcome o = sampleOutcome();
    EXPECT_TRUE(parseCondition("!(t0.r1 == 0)")->evalBool(o));
    EXPECT_FALSE(parseCondition("!(t0.r1 == 1)")->evalBool(o));
    EXPECT_TRUE(parseCondition("!!(t0.r1 == 1)")->evalBool(o));
}

TEST(ConditionParser, HexLiterals)
{
    Outcome o;
    o.registers["t0.r1"] = 255;
    EXPECT_TRUE(parseCondition("t0.r1 == 0xff")->evalBool(o));
}

TEST(ConditionParser, Whitespace)
{
    Outcome o = sampleOutcome();
    EXPECT_TRUE(parseCondition("  t1.r2==42  ")->evalBool(o));
}

TEST(ConditionParser, Malformed)
{
    EXPECT_THROW(parseCondition(""), FatalError);
    EXPECT_THROW(parseCondition("t0.r1"), FatalError);
    EXPECT_THROW(parseCondition("t0.r1 == "), FatalError);
    EXPECT_THROW(parseCondition("t0.r1 = 1"), FatalError);
    EXPECT_THROW(parseCondition("(t0.r1 == 1"), FatalError);
    EXPECT_THROW(parseCondition("t0.r1 == 1 &&"), FatalError);
    EXPECT_THROW(parseCondition("t0.r1 == 1 extra"), FatalError);
    EXPECT_THROW(parseCondition("[x == 1"), FatalError);
    EXPECT_THROW(parseCondition("t0r1 == 1"), FatalError);
}

TEST(ConditionParser, NestingDepthIsBounded)
{
    Outcome o = sampleOutcome();
    // A comparison is two levels deep and each '!' adds one, so
    // kMaxConditionDepth - 2 negations is the deepest accepted.
    const std::size_t most = kMaxConditionDepth - 2;
    EXPECT_TRUE(parseCondition(std::string(most, '!') + "t0.r1 == 1")
                    ->evalBool(o));
    EXPECT_THROW(parseCondition(std::string(most + 1, '!') + "t0.r1 == 1"),
                 FatalError);

    // Far past the limit — these once overflowed the stack.
    EXPECT_THROW(parseCondition(std::string(300000, '!') + "t0.r1 == 1"),
                 FatalError);
    EXPECT_THROW(parseCondition(std::string(300000, '(') + "t0.r1 == 1"),
                 FatalError);
    try {
        parseCondition(std::string(300000, '!') + "t0.r1 == 1");
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("nesting deeper than"),
                  std::string::npos);
    }

    // A flat chain builds a tree as deep as it is long, and every
    // later pass over the tree recurses through it.
    std::string chain = "t0.r1 == 1";
    for (std::size_t i = 0; i < kMaxConditionDepth; i++)
        chain += " && t0.r1 == 1";
    EXPECT_THROW(parseCondition(chain), FatalError);
}

TEST(ConditionParser, RoundTripToString)
{
    auto e = parseCondition("!(t0.r1 == 1) || t1.r2 != 3 && [x] == 0");
    Outcome o;
    o.registers["t0.r1"] = 1;
    o.registers["t1.r2"] = 3;
    o.memory["x"] = 0;
    // Re-parse the rendering and check it evaluates identically.
    auto e2 = parseCondition(e->toString());
    EXPECT_EQ(e->evalBool(o), e2->evalBool(o));
}

TEST(Outcome, OrderingAndToString)
{
    Outcome a = sampleOutcome();
    Outcome b = sampleOutcome();
    EXPECT_EQ(a, b);
    b.registers["t0.r1"] = 2;
    EXPECT_NE(a, b);
    EXPECT_LT(a, b);
    EXPECT_EQ(a.toString(), "t0.r1=1 t1.r2=42 [x]=7");
}

TEST(Outcome, PrintsAsItsText)
{
    // gtest prints outcomes (and sets of them) through operator<<, so a
    // failed comparison shows the values, not the object's bytes.
    const Outcome a = sampleOutcome();
    std::ostringstream os;
    os << a;
    EXPECT_EQ(os.str(), a.toString());
    EXPECT_EQ(testing::PrintToString(std::set<Outcome>{a}),
              "{ t0.r1=1 t1.r2=42 [x]=7 }");
}

} // namespace
