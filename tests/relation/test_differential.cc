/**
 * @file
 * Randomized differential tests for the relation layer.
 *
 * Every word-level kernel operation and delta operation on Relation is
 * checked against a naive pair-set reference oracle over seeded random
 * relations. The oracle stores explicit (a, b) pairs in a std::set and
 * implements each operator by definition — no bit tricks, no sharing
 * with the production code — so any divergence flags a kernel bug.
 * Seeds are fixed; the suite is fully deterministic.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "relation/relation.hh"

namespace {

using mixedproxy::relation::EventId;
using mixedproxy::relation::EventSet;
using mixedproxy::relation::Relation;

using Pair = std::pair<EventId, EventId>;
using PairSet = std::set<Pair>;

/** Naive reference implementations, by definition. */
namespace oracle {

PairSet
unionOf(const PairSet &a, const PairSet &b)
{
    PairSet out = a;
    out.insert(b.begin(), b.end());
    return out;
}

PairSet
intersectOf(const PairSet &a, const PairSet &b)
{
    PairSet out;
    for (const auto &p : a) {
        if (b.count(p))
            out.insert(p);
    }
    return out;
}

PairSet
differenceOf(const PairSet &a, const PairSet &b)
{
    PairSet out;
    for (const auto &p : a) {
        if (!b.count(p))
            out.insert(p);
    }
    return out;
}

PairSet
composeOf(const PairSet &a, const PairSet &b)
{
    PairSet out;
    for (const auto &[x, m1] : a) {
        for (const auto &[m2, y] : b) {
            if (m1 == m2)
                out.insert({x, y});
        }
    }
    return out;
}

/** Irreflexive transitive closure by iterated composition. */
PairSet
closureOf(const PairSet &r)
{
    PairSet out = r;
    bool changed = true;
    while (changed) {
        changed = false;
        PairSet step = composeOf(out, r);
        for (const auto &p : step) {
            if (out.insert(p).second)
                changed = true;
        }
    }
    return out;
}

bool
acyclicOf(const PairSet &r)
{
    PairSet closed = closureOf(r);
    return std::none_of(closed.begin(), closed.end(), [](const Pair &p) {
        return p.first == p.second;
    });
}

PairSet
restrictOf(const PairSet &r, const std::set<EventId> &s)
{
    PairSet out;
    for (const auto &p : r) {
        if (s.count(p.first) && s.count(p.second))
            out.insert(p);
    }
    return out;
}

} // namespace oracle

/** Random relation with its mirrored pair set. */
struct Sample
{
    Relation rel;
    PairSet pairs;
};

Sample
randomRelation(std::mt19937 &rng, std::size_t n, double density)
{
    Sample s{Relation(n), {}};
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    for (EventId a = 0; a < n; a++) {
        for (EventId b = 0; b < n; b++) {
            if (coin(rng) < density) {
                s.rel.insert(a, b);
                s.pairs.insert({a, b});
            }
        }
    }
    return s;
}

PairSet
pairsOf(const Relation &r)
{
    PairSet out;
    r.forEach([&](EventId a, EventId b) { out.insert({a, b}); });
    return out;
}

/** Universe sizes crossing the one-word boundary (64 bits). */
const std::size_t kSizes[] = {1, 3, 7, 17, 33, 63, 64, 65, 100};

TEST(RelationDifferential, SetAlgebraMatchesOracle)
{
    std::mt19937 rng(0xA11CE5);
    for (std::size_t n : kSizes) {
        for (double density : {0.02, 0.15, 0.5}) {
            Sample a = randomRelation(rng, n, density);
            Sample b = randomRelation(rng, n, density);
            EXPECT_EQ(pairsOf(a.rel | b.rel),
                      oracle::unionOf(a.pairs, b.pairs));
            EXPECT_EQ(pairsOf(a.rel & b.rel),
                      oracle::intersectOf(a.pairs, b.pairs));
            EXPECT_EQ(pairsOf(a.rel - b.rel),
                      oracle::differenceOf(a.pairs, b.pairs));
            EXPECT_EQ(a.rel.empty(), a.pairs.empty());
            EXPECT_EQ(a.rel.pairCount(), a.pairs.size());
        }
    }
}

TEST(RelationDifferential, ComposeMatchesOracle)
{
    std::mt19937 rng(0xBEEF01);
    for (std::size_t n : kSizes) {
        Sample a = randomRelation(rng, n, 0.1);
        Sample b = randomRelation(rng, n, 0.1);
        EXPECT_EQ(pairsOf(a.rel.compose(b.rel)),
                  oracle::composeOf(a.pairs, b.pairs));
    }
}

TEST(RelationDifferential, ClosureMatchesOracle)
{
    std::mt19937 rng(0xC105ED);
    for (std::size_t n : kSizes) {
        for (double density : {0.02, 0.08, 0.3}) {
            Sample s = randomRelation(rng, n, density);
            EXPECT_EQ(pairsOf(s.rel.transitiveClosure()),
                      oracle::closureOf(s.pairs))
                << "n=" << n << " density=" << density;
        }
    }
}

TEST(RelationDifferential, AcyclicMatchesOracle)
{
    std::mt19937 rng(0xAC1C11);
    for (std::size_t n : kSizes) {
        // Sparse enough that both verdicts actually occur.
        for (double density : {0.01, 0.05, 0.2}) {
            Sample s = randomRelation(rng, n, density);
            EXPECT_EQ(s.rel.acyclic(), oracle::acyclicOf(s.pairs));
        }
    }
}

TEST(RelationDifferential, RestrictMatchesOracle)
{
    std::mt19937 rng(0x5E7EC7);
    for (std::size_t n : kSizes) {
        Sample s = randomRelation(rng, n, 0.2);
        EventSet keep(n);
        std::set<EventId> keep_ids;
        std::uniform_real_distribution<double> coin(0.0, 1.0);
        for (EventId id = 0; id < n; id++) {
            if (coin(rng) < 0.5) {
                keep.insert(id);
                keep_ids.insert(id);
            }
        }
        EXPECT_EQ(pairsOf(s.rel.restrict(keep)),
                  oracle::restrictOf(s.pairs, keep_ids));
    }
}

TEST(RelationDifferential, InsertClosureMaintainsClosure)
{
    // Start from the closure of a random base, then stream random extra
    // edges through insertClosure; after every insert the result must be
    // bit-identical to recomputing the closure of base ∪ inserted from
    // scratch (the oracle and the from-scratch path double-check each
    // other).
    std::mt19937 rng(0xDE17A5);
    for (std::size_t n : {5UL, 12UL, 33UL, 65UL}) {
        Sample base = randomRelation(rng, n, 0.05);
        Relation closed = base.rel.transitiveClosure();
        PairSet edges = base.pairs;
        std::uniform_int_distribution<EventId> pick(0, n - 1);
        for (int step = 0; step < 40; step++) {
            EventId a = pick(rng);
            EventId b = pick(rng);
            edges.insert({a, b});
            if (!closed.contains(a, b))
                closed.insertClosure(a, b);
            ASSERT_EQ(pairsOf(closed), oracle::closureOf(edges))
                << "n=" << n << " step=" << step << " edge=(" << a
                << "," << b << ")";
        }
    }
}

TEST(RelationDifferential, InsertWouldCycleMatchesFromScratchAcyclicity)
{
    // Grow a relation edge by edge, keeping it acyclic: the incremental
    // check on the maintained closure must agree with a from-scratch
    // acyclicity test of the would-be edge set.
    std::mt19937 rng(0x0DDC0C);
    for (std::size_t n : {6UL, 20UL, 64UL, 80UL}) {
        Relation closed(n);
        PairSet edges;
        std::uniform_int_distribution<EventId> pick(0, n - 1);
        for (int step = 0; step < 120; step++) {
            EventId a = pick(rng);
            EventId b = pick(rng);
            PairSet would = edges;
            would.insert({a, b});
            const bool incremental_cycle = closed.insertWouldCycle(a, b);
            EXPECT_EQ(incremental_cycle, !oracle::acyclicOf(would))
                << "n=" << n << " step=" << step << " edge=(" << a
                << "," << b << ")";
            if (incremental_cycle)
                continue; // keep the growing relation acyclic
            edges.insert({a, b});
            if (!closed.contains(a, b))
                closed.insertClosure(a, b);
        }
    }
}

TEST(EventSetDifferential, EmptyAndFilterMatchOracle)
{
    std::mt19937 rng(0x5E7000);
    for (std::size_t n : kSizes) {
        EventSet s(n);
        std::set<EventId> ids;
        std::uniform_real_distribution<double> coin(0.0, 1.0);
        for (EventId id = 0; id < n; id++) {
            if (coin(rng) < 0.3) {
                s.insert(id);
                ids.insert(id);
            }
        }
        EXPECT_EQ(s.empty(), ids.empty());
        EXPECT_EQ(s.count(), ids.size());
        auto keep = [](EventId id) { return id % 2 == 0; };
        std::set<EventId> expect_ids;
        for (EventId id : ids) {
            if (keep(id))
                expect_ids.insert(id);
        }
        std::set<EventId> got_ids;
        s.filter(keep).forEach([&](EventId id) { got_ids.insert(id); });
        EXPECT_EQ(got_ids, expect_ids);
    }
    EXPECT_TRUE(EventSet(0).empty());
    EXPECT_TRUE(Relation(0).empty());
}

} // namespace
