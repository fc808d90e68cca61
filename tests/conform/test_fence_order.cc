/**
 * @file
 * Unit and differential tests for the streaming checker's Fence-SC
 * order (conform/fence_order.hh).
 *
 * The reference is a dense Relation over every fence id ever admitted:
 * fed the same closure-maintaining inserts, it must agree with the
 * FenceOrder on every pair of live ids, across admissions and the row
 * and column shifts that retirements trigger.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>

#include "conform/fence_order.hh"
#include "relation/error.hh"
#include "relation/relation.hh"

namespace {

using mixedproxy::PanicError;
using mixedproxy::conform::FenceOrder;
using mixedproxy::relation::Relation;

TEST(FenceOrder, AdmitInsertContains)
{
    FenceOrder order(8);
    EXPECT_EQ(order.liveCount(), 0u);
    EXPECT_EQ(order.admit(), 0u);
    EXPECT_EQ(order.admit(), 1u);
    EXPECT_EQ(order.admit(), 2u);
    EXPECT_EQ(order.liveCount(), 3u);
    order.insertClosure(0, 1);
    EXPECT_TRUE(order.contains(0, 1));
    EXPECT_FALSE(order.contains(1, 0));
    EXPECT_FALSE(order.contains(1, 2));
    // Ids that were never admitted are absent, not errors.
    EXPECT_FALSE(order.contains(0, 7));
}

TEST(FenceOrder, InsertClosureMaintainsTransitivity)
{
    FenceOrder order(8);
    for (int i = 0; i < 4; i++)
        order.admit();
    order.insertClosure(0, 1);
    order.insertClosure(2, 3);
    order.insertClosure(1, 2);
    EXPECT_TRUE(order.contains(0, 2));
    EXPECT_TRUE(order.contains(0, 3));
    EXPECT_TRUE(order.contains(1, 3));
    EXPECT_FALSE(order.contains(3, 0));
}

TEST(FenceOrder, InsertWouldCycleOnClosedChain)
{
    FenceOrder order(8);
    for (int i = 0; i < 3; i++)
        order.admit();
    order.insertClosure(0, 1);
    order.insertClosure(1, 2);
    EXPECT_TRUE(order.insertWouldCycle(2, 0));
    EXPECT_TRUE(order.insertWouldCycle(1, 1));
    EXPECT_FALSE(order.insertWouldCycle(0, 2));
}

TEST(FenceOrder, RetireBelowDropsOldRows)
{
    FenceOrder order(4);
    for (int i = 0; i < 4; i++)
        order.admit();
    order.insertClosure(0, 1);
    order.insertClosure(1, 2);
    order.insertClosure(2, 3);
    order.retireBelow(2);
    EXPECT_EQ(order.front(), 2u);
    EXPECT_EQ(order.liveCount(), 2u);
    EXPECT_TRUE(order.contains(2, 3));
    EXPECT_FALSE(order.contains(0, 3)); // retired ids read as absent
    EXPECT_THROW(order.insertClosure(1, 3), PanicError);
    // The window slides on: ids 4 and 5 now fit.
    EXPECT_EQ(order.admit(), 4u);
    EXPECT_EQ(order.admit(), 5u);
    order.insertClosure(3, 4);
    order.insertClosure(4, 5);
    EXPECT_TRUE(order.contains(2, 5));
    EXPECT_TRUE(order.contains(3, 5));
    EXPECT_FALSE(order.contains(5, 2));
}

TEST(FenceOrder, AdmitBeyondCapacityPanics)
{
    FenceOrder order(4);
    for (int i = 0; i < 4; i++)
        order.admit();
    EXPECT_THROW(order.admit(), PanicError);
    // After retiring, the next admit succeeds.
    order.retireBelow(2);
    EXPECT_EQ(order.admit(), 4u);
    EXPECT_EQ(order.liveCount(), 3u);
}

/** Every live pair of @p order must match @p dense. */
void
expectSameOnLiveIds(const FenceOrder &order, const Relation &dense,
                    std::size_t window, std::size_t step)
{
    const std::uint64_t end = order.front() + order.liveCount();
    for (std::uint64_t a = order.front(); a < end; a++) {
        for (std::uint64_t b = order.front(); b < end; b++) {
            ASSERT_EQ(order.contains(a, b), dense.contains(a, b))
                << "pair (" << a << ", " << b << ") at window " << window
                << ", step " << step;
        }
    }
}

TEST(FenceOrder, ClosureMatchesDenseUnderSlidingWindow)
{
    // Seeded random edges, cycle probes and retirements; the window
    // sizes straddle word boundaries, so the column shift on retirement
    // spans one, two and three words.
    for (std::size_t window : {2, 3, 63, 64, 65, 130}) {
        const std::size_t steps = 12 * window + 100;
        std::mt19937_64 rng(0xFE7CE + window);
        Relation dense(steps);
        FenceOrder order(window);
        std::size_t retirements = 0;
        std::size_t refused = 0;

        for (std::size_t step = 0; step < steps; step++) {
            const std::size_t roll = rng() % 100;
            bool retired = false;
            if (roll < 30) {
                if (order.liveCount() == window) {
                    // What the checker does: drop the oldest half.
                    order.retireBelow(order.front() + window / 2);
                    retired = true;
                }
                order.admit();
            } else if (roll < 35 && order.liveCount() > 0) {
                // Retire an arbitrary prefix, sometimes all of it.
                const std::uint64_t drop = rng() % (order.liveCount() + 1);
                order.retireBelow(order.front() + drop);
                retired = true;
            } else if (order.liveCount() > 0) {
                // An edge between two live fences, in either direction.
                const std::uint64_t a =
                    order.front() + rng() % order.liveCount();
                const std::uint64_t b =
                    order.front() + rng() % order.liveCount();
                const bool cycle = a == b || dense.contains(b, a);
                ASSERT_EQ(order.insertWouldCycle(a, b), cycle)
                    << "probe (" << a << ", " << b << ") at window "
                    << window << ", step " << step;
                if (cycle) {
                    refused++;
                } else if (!dense.contains(a, b)) {
                    dense.insertClosure(a, b);
                    order.insertClosure(a, b);
                }
            }
            if (retired) {
                retirements++;
                EXPECT_LE(order.liveCount(), window);
            }
            if (retired || step % 8 == 0)
                expectSameOnLiveIds(order, dense, window, step);
        }
        expectSameOnLiveIds(order, dense, window, steps);
        EXPECT_GT(retirements, 0u) << "window " << window;
        EXPECT_GT(refused, 0u) << "window " << window;
    }
}

} // namespace
