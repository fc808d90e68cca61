/**
 * @file
 * Unit tests for the cache and store-queue building blocks.
 */

#include <gtest/gtest.h>

#include "microarch/cache.hh"
#include "relation/error.hh"

namespace {

using namespace mixedproxy::microarch;
using mixedproxy::PanicError;

TEST(Cache, MissThenFillThenHit)
{
    Cache c("l1");
    EXPECT_FALSE(c.lookup(3).has_value());
    c.fill(3, 42, 7, false);
    auto line = c.lookup(3);
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(line->value, 42u);
    EXPECT_EQ(line->location, 7);
    EXPECT_FALSE(line->dirty);
    EXPECT_EQ(c.invalidateAll(), 1u);
}

TEST(Cache, FillOverwrites)
{
    Cache c("l1");
    c.fill(3, 1, 7, false);
    c.fill(3, 2, 7, true);
    auto line = c.lookup(3);
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(line->value, 2u);
    EXPECT_TRUE(line->dirty);
    EXPECT_EQ(c.invalidateAll(), 1u); // one line, overwritten
}

TEST(Cache, InvalidateAll)
{
    Cache c("tex");
    c.fill(1, 10, 0, false);
    c.fill(2, 20, 1, false);
    EXPECT_EQ(c.invalidateAll(), 2u);
    EXPECT_FALSE(c.lookup(1).has_value());
    EXPECT_EQ(c.invalidateAll(), 0u);
}

TEST(Cache, InvalidateLocationDropsOnlyAliases)
{
    Cache c("l1");
    // Two virtual tags aliasing location 5, one mapping elsewhere.
    c.fill(1, 10, 5, false);
    c.fill(2, 20, 5, false);
    c.fill(3, 30, 6, false);
    EXPECT_EQ(c.invalidateLocation(5), 2u);
    EXPECT_FALSE(c.lookup(1).has_value());
    EXPECT_FALSE(c.lookup(2).has_value());
    EXPECT_TRUE(c.lookup(3).has_value());
}

TEST(Cache, MarkClean)
{
    Cache c("l1");
    c.fill(1, 10, 0, true);
    c.markClean(1);
    EXPECT_FALSE(c.lookup(1)->dirty);
    c.markClean(99); // no-op on absent line
}

TEST(StoreQueue, FifoPerTag)
{
    StoreQueue q;
    q.push(1, 0, 10);
    q.push(1, 0, 11);
    q.push(2, 1, 20);
    EXPECT_EQ(q.size(), 3u);
    auto tags = q.drainableTags();
    EXPECT_EQ(tags.size(), 2u);
    // Oldest-per-tag ordering.
    EXPECT_EQ(q.drainTag(1).value, 10u);
    EXPECT_EQ(q.drainTag(1).value, 11u);
    EXPECT_EQ(q.drainTag(2).value, 20u);
    EXPECT_TRUE(q.empty());
}

TEST(StoreQueue, DrainMissingTagPanics)
{
    StoreQueue q;
    EXPECT_THROW(q.drainTag(1), PanicError);
}

TEST(StoreQueue, DrainAllIsOldestFirst)
{
    StoreQueue q;
    q.push(2, 1, 20);
    q.push(1, 0, 10);
    q.push(2, 1, 21);
    auto all = q.drainAll();
    ASSERT_EQ(all.size(), 3u);
    EXPECT_EQ(all[0].value, 20u);
    EXPECT_EQ(all[1].value, 10u);
    EXPECT_EQ(all[2].value, 21u);
    EXPECT_TRUE(q.empty());
}

TEST(StoreQueue, DrainAllForTag)
{
    StoreQueue q;
    q.push(1, 0, 10);
    q.push(2, 1, 20);
    q.push(1, 0, 11);
    auto drained = q.drainAllForTag(1);
    ASSERT_EQ(drained.size(), 2u);
    EXPECT_EQ(drained[0].value, 10u);
    EXPECT_EQ(drained[1].value, 11u);
    EXPECT_EQ(q.size(), 1u);
}

TEST(StoreQueue, ForwardReturnsYoungest)
{
    StoreQueue q;
    EXPECT_FALSE(q.forward(1).has_value());
    q.push(1, 0, 10);
    q.push(1, 0, 11);
    q.push(2, 1, 20);
    auto fwd = q.forward(1);
    ASSERT_TRUE(fwd.has_value());
    EXPECT_EQ(fwd->value, 11u);
}

} // namespace
