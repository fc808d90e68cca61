/**
 * @file
 * Unit tests for relation::Relation, including property-style sweeps of
 * the closure and composition operators.
 */

#include <algorithm>
#include <random>

#include <gtest/gtest.h>

#include "relation/error.hh"
#include "relation/relation.hh"

namespace {

using mixedproxy::PanicError;
using mixedproxy::relation::EventId;
using mixedproxy::relation::EventSet;
using mixedproxy::relation::forEachTotalOrderVisit;
using mixedproxy::relation::Relation;
using mixedproxy::relation::TotalOrderScratch;

/**
 * Drive forEachTotalOrderVisit with a visitor that hands each complete
 * order to @p visit and checks that push/pop keep the prefix balanced.
 */
template <typename Visit>
bool
forEachOrder(const EventSet &subset, const Relation &partial,
             Visit &&visit)
{
    struct Visitor
    {
        Visit &visit;
        std::size_t depth = 0;

        void
        push(EventId id, const std::vector<EventId> &prefix)
        {
            depth++;
            EXPECT_EQ(prefix.size(), depth);
            EXPECT_EQ(prefix.back(), id);
        }

        void
        pop(EventId id, const std::vector<EventId> &prefix)
        {
            EXPECT_EQ(prefix.size(), depth);
            EXPECT_EQ(prefix.back(), id);
            depth--;
        }

        bool
        complete(const std::vector<EventId> &order)
        {
            EXPECT_EQ(order.size(), depth);
            return visit(order);
        }
    } visitor{visit};
    TotalOrderScratch scratch;
    return forEachTotalOrderVisit(subset, partial, visitor, scratch);
}

/** Position of @p id in @p order. */
std::ptrdiff_t
positionOf(const std::vector<EventId> &order, EventId id)
{
    return std::find(order.begin(), order.end(), id) - order.begin();
}

TEST(Relation, EmptyOnConstruction)
{
    Relation r(5);
    EXPECT_TRUE(r.empty());
    EXPECT_EQ(r.pairCount(), 0u);
    EXPECT_TRUE(r.irreflexive());
    EXPECT_TRUE(r.acyclic());
    EXPECT_TRUE(r.transitive());
}

TEST(Relation, InsertContainsErase)
{
    Relation r(70);
    r.insert(0, 69);
    r.insert(69, 0);
    EXPECT_TRUE(r.contains(0, 69));
    EXPECT_TRUE(r.contains(69, 0));
    EXPECT_FALSE(r.contains(0, 0));
    r.erase(0, 69);
    EXPECT_FALSE(r.contains(0, 69));
    EXPECT_EQ(r.pairCount(), 1u);
}

TEST(Relation, Identity)
{
    Relation id = Relation::identity(4);
    EXPECT_EQ(id.pairCount(), 4u);
    EXPECT_TRUE(id.contains(2, 2));
    EXPECT_FALSE(id.irreflexive());
}

TEST(Relation, Algebra)
{
    Relation a(4, {{0, 1}, {1, 2}});
    Relation b(4, {{1, 2}, {2, 3}});
    EXPECT_EQ((a | b), Relation(4, {{0, 1}, {1, 2}, {2, 3}}));
    EXPECT_EQ((a & b), Relation(4, {{1, 2}}));
    EXPECT_EQ((a - b), Relation(4, {{0, 1}}));
}

TEST(Relation, Compose)
{
    Relation a(4, {{0, 1}, {2, 3}});
    Relation b(4, {{1, 2}, {3, 0}});
    EXPECT_EQ(a.compose(b), Relation(4, {{0, 2}, {2, 0}}));
}

TEST(Relation, ComposeWithIdentityIsNoop)
{
    Relation a(5, {{0, 1}, {1, 2}, {4, 0}});
    EXPECT_EQ(a.compose(Relation::identity(5)), a);
    EXPECT_EQ(Relation::identity(5).compose(a), a);
}

TEST(Relation, Inverse)
{
    Relation a(3, {{0, 1}, {1, 2}});
    EXPECT_EQ(a.inverse(), Relation(3, {{1, 0}, {2, 1}}));
    EXPECT_EQ(a.inverse().inverse(), a);
}

TEST(Relation, TransitiveClosureChain)
{
    Relation r(4, {{0, 1}, {1, 2}, {2, 3}});
    Relation tc = r.transitiveClosure();
    EXPECT_TRUE(tc.contains(0, 3));
    EXPECT_TRUE(tc.contains(0, 2));
    EXPECT_TRUE(tc.contains(1, 3));
    EXPECT_FALSE(tc.contains(3, 0));
    EXPECT_TRUE(tc.transitive());
}

TEST(Relation, TransitiveClosureCycle)
{
    Relation r(3, {{0, 1}, {1, 2}, {2, 0}});
    Relation tc = r.transitiveClosure();
    EXPECT_TRUE(tc.contains(0, 0));
    EXPECT_FALSE(tc.irreflexive());
    EXPECT_FALSE(r.acyclic());
}

TEST(Relation, AcyclicOnDags)
{
    Relation dag(5, {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}});
    EXPECT_TRUE(dag.acyclic());
    dag.insert(4, 0);
    EXPECT_FALSE(dag.acyclic());
}

TEST(Relation, SelfLoopIsCycle)
{
    Relation r(2, {{1, 1}});
    EXPECT_FALSE(r.acyclic());
    EXPECT_FALSE(r.irreflexive());
}

TEST(Relation, RestrictOperators)
{
    Relation r(4, {{0, 1}, {1, 2}, {2, 3}});
    EventSet s(4, {1, 2});
    EXPECT_EQ(r.restrict(s), Relation(4, {{1, 2}}));
    EXPECT_EQ(r.restrictDomain(s), Relation(4, {{1, 2}, {2, 3}}));
    EXPECT_EQ(r.restrictRange(s), Relation(4, {{0, 1}, {1, 2}}));
}

TEST(Relation, DomainRangeSuccessors)
{
    Relation r(5, {{0, 2}, {0, 3}, {4, 3}});
    EXPECT_EQ(r.domain(), EventSet(5, {0, 4}));
    EXPECT_EQ(r.range(), EventSet(5, {2, 3}));
    EXPECT_EQ(r.successors(0), EventSet(5, {2, 3}));
    EXPECT_EQ(r.predecessors(3), EventSet(5, {0, 4}));
}

TEST(Relation, Product)
{
    Relation r = Relation::product(EventSet(3, {0}), EventSet(3, {1, 2}));
    EXPECT_EQ(r, Relation(3, {{0, 1}, {0, 2}}));
}

TEST(Relation, FilterKeepsMatchingPairs)
{
    Relation lt = Relation::full(4).filter(
        [](EventId a, EventId b) { return a < b; });
    EXPECT_EQ(lt.pairCount(), 6u);
    EXPECT_TRUE(lt.acyclic());
    EXPECT_EQ(lt, Relation(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3},
                               {2, 3}}));
}

TEST(Relation, FindPath)
{
    Relation r(5, {{0, 1}, {1, 2}, {2, 3}});
    auto path = r.findPath(0, 3);
    ASSERT_TRUE(path.has_value());
    EXPECT_EQ(*path, (std::vector<EventId>{1, 2}));
    EXPECT_FALSE(r.findPath(3, 0).has_value());
    auto direct = r.findPath(0, 1);
    ASSERT_TRUE(direct.has_value());
    EXPECT_TRUE(direct->empty());
}

TEST(Relation, TopologicalOrderRespectsEdges)
{
    Relation r(5, {{0, 1}, {1, 2}, {3, 2}});
    std::vector<EventId> order{4}; // cleared first
    ASSERT_TRUE(r.topologicalOrderInto(EventSet::full(5), order));
    ASSERT_EQ(order.size(), 5u);
    EXPECT_LT(positionOf(order, 0), positionOf(order, 1));
    EXPECT_LT(positionOf(order, 1), positionOf(order, 2));
    EXPECT_LT(positionOf(order, 3), positionOf(order, 2));
}

TEST(Relation, TopologicalOrderOnCycleFails)
{
    Relation r(3, {{0, 1}, {1, 0}});
    std::vector<EventId> order;
    EXPECT_FALSE(r.topologicalOrderInto(EventSet::full(3), order));
}

TEST(Relation, UniverseMismatchPanics)
{
    Relation a(3);
    Relation b(4);
    EXPECT_THROW(a | b, PanicError);
    EXPECT_THROW(a.compose(b), PanicError);
}

TEST(TotalOrderEnumeration, UnconstrainedIsFactorial)
{
    EventSet s(4, {0, 1, 2});
    std::size_t count = 0;
    forEachOrder(s, Relation(4), [&](const auto &) {
        count++;
        return true;
    });
    EXPECT_EQ(count, 6u);
}

TEST(TotalOrderEnumeration, RespectsPartialOrder)
{
    EventSet s(3, {0, 1, 2});
    Relation partial(3, {{0, 1}});
    std::size_t count = 0;
    forEachOrder(s, partial, [&](const std::vector<EventId> &order) {
        EXPECT_LT(positionOf(order, 0), positionOf(order, 1));
        count++;
        return true;
    });
    EXPECT_EQ(count, 3u);
}

TEST(TotalOrderEnumeration, CyclicConstraintYieldsNothing)
{
    EventSet s(2, {0, 1});
    Relation partial(2, {{0, 1}, {1, 0}});
    std::size_t count = 0;
    forEachOrder(s, partial, [&](const auto &) {
        count++;
        return true;
    });
    EXPECT_EQ(count, 0u);
}

TEST(TotalOrderEnumeration, EmptySubsetVisitsOnce)
{
    std::size_t count = 0;
    forEachOrder(EventSet(3), Relation(3), [&](const auto &order) {
        EXPECT_TRUE(order.empty());
        count++;
        return true;
    });
    EXPECT_EQ(count, 1u);
}

TEST(TotalOrderEnumeration, EarlyAbort)
{
    EventSet s(4, {0, 1, 2, 3});
    std::size_t count = 0;
    bool completed = forEachOrder(s, Relation(4), [&](const auto &) {
        count++;
        return count < 5;
    });
    EXPECT_FALSE(completed);
    EXPECT_EQ(count, 5u);
}

// Property sweep: closure is idempotent and monotone on random DAG-ish
// relations; compose distributes over union.
class RelationPropertyTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(RelationPropertyTest, ClosureIdempotentAndMonotone)
{
    std::mt19937 rng(GetParam());
    std::uniform_int_distribution<std::size_t> node(0, 9);
    Relation r(10);
    for (int i = 0; i < 15; i++)
        r.insert(node(rng), node(rng));

    Relation tc = r.transitiveClosure();
    EXPECT_EQ(tc.transitiveClosure(), tc);
    EXPECT_TRUE(r.subsetOf(tc));
    EXPECT_TRUE(tc.transitive());
}

TEST_P(RelationPropertyTest, ComposeDistributesOverUnion)
{
    std::mt19937 rng(GetParam() * 7919 + 13);
    std::uniform_int_distribution<std::size_t> node(0, 7);
    auto random_relation = [&]() {
        Relation r(8);
        for (int i = 0; i < 10; i++)
            r.insert(node(rng), node(rng));
        return r;
    };
    Relation a = random_relation();
    Relation b = random_relation();
    Relation c = random_relation();
    EXPECT_EQ(a.compose(b | c), a.compose(b) | a.compose(c));
    EXPECT_EQ((a | b).compose(c), a.compose(c) | b.compose(c));
}

TEST_P(RelationPropertyTest, InverseReversesCompose)
{
    std::mt19937 rng(GetParam() * 104729 + 1);
    std::uniform_int_distribution<std::size_t> node(0, 7);
    auto random_relation = [&]() {
        Relation r(8);
        for (int i = 0; i < 10; i++)
            r.insert(node(rng), node(rng));
        return r;
    };
    Relation a = random_relation();
    Relation b = random_relation();
    EXPECT_EQ(a.compose(b).inverse(), b.inverse().compose(a.inverse()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RelationPropertyTest,
                         ::testing::Range(0u, 20u));

} // namespace
