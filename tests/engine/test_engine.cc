/**
 * @file
 * Tests for engine::Engine::submit(): cache hits across repeated and
 * renamed requests, namespace translation of cached outcomes,
 * assertion re-evaluation on hits, witness bypass, model comparison,
 * lint routing, and warm/cold report identity.
 */

#include <filesystem>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "engine/canonical.hh"
#include "engine/engine.hh"
#include "litmus/registry.hh"
#include "litmus/test.hh"

#include "rename.hh"

namespace {

using namespace mixedproxy;
using namespace mixedproxy::engine;
using namespace mixedproxy::engine_tests;

litmus::LitmusTest
messagePassing(const char *name = "mp")
{
    return litmus::LitmusBuilder(name)
        .thread("t0", 0, 0,
                {"st.global.u32 [x], 1", "st.release.gpu.u32 [f], 1"})
        .thread("t1", 1, 0,
                {"ld.acquire.gpu.u32 r0, [f]", "ld.global.u32 r1, [x]"})
        .require("!(t1.r0 == 1) || t1.r1 == 1")
        .build();
}

TEST(Engine, RepeatedSubmitHitsTheCache)
{
    Engine engine;
    Request request = Request::forCheck(messagePassing());

    Verdict cold = engine.submit(request);
    EXPECT_FALSE(cold.cacheHit);
    Verdict warm = engine.submit(request);
    EXPECT_TRUE(warm.cacheHit);

    EXPECT_EQ(warm.check.outcomes, cold.check.outcomes);
    EXPECT_EQ(warm.passed(), cold.passed());
    // The warm report must be byte-identical to the cold one.
    EXPECT_EQ(renderReport(request, warm),
              renderReport(request, cold));
}

TEST(Engine, RenamedTestHitsAndSpeaksItsOwnNamespace)
{
    Engine engine;
    litmus::LitmusTest original = messagePassing();
    RenamePlan plan = freshNamePlan(original, true);
    litmus::LitmusTest variant = applyRename(original, plan);
    ASSERT_EQ(canonicalKey(original), canonicalKey(variant));

    Verdict cold = engine.submit(Request::forCheck(original));
    EXPECT_FALSE(cold.cacheHit);

    Verdict warm = engine.submit(Request::forCheck(variant));
    EXPECT_TRUE(warm.cacheHit);

    // Outcomes are translated into the variant's own names...
    ASSERT_FALSE(warm.check.outcomes.empty());
    for (const litmus::Outcome &outcome : warm.check.outcomes) {
        for (const auto &[reg, value] : outcome.registers)
            EXPECT_EQ(reg.find("zzthread"), 0u) << reg;
        for (const auto &[loc, value] : outcome.memory)
            EXPECT_EQ(loc.find("zzaddr"), 0u) << loc;
    }
    // ...and the variant's own (rewritten) assertions are evaluated.
    ASSERT_EQ(warm.check.assertions.size(), 1u);
    EXPECT_TRUE(warm.check.assertions[0].passed);
    EXPECT_TRUE(warm.passed());

    // The outcome sets agree modulo the rename maps.
    CanonicalForm formA = canonicalize(original);
    CanonicalForm formB = canonicalize(variant);
    std::set<litmus::Outcome> a;
    for (const litmus::Outcome &outcome : cold.check.outcomes)
        a.insert(formA.toCanonical(outcome));
    std::set<litmus::Outcome> b;
    for (const litmus::Outcome &outcome : warm.check.outcomes)
        b.insert(formB.toCanonical(outcome));
    EXPECT_EQ(a, b);
}

TEST(Engine, AssertionsAreReevaluatedPerRequestOnHits)
{
    Engine engine;
    // Same program, opposite assertions: the second request must get
    // its own verdict from the shared cached enumeration.
    litmus::LitmusTest requiring = messagePassing("mp_requires");
    litmus::LitmusTest forbids =
        litmus::LitmusBuilder("mp_forbids")
            .thread("t0", 0, 0,
                    {"st.global.u32 [x], 1",
                     "st.release.gpu.u32 [f], 1"})
            .thread("t1", 1, 0,
                    {"ld.acquire.gpu.u32 r0, [f]",
                     "ld.global.u32 r1, [x]"})
            .forbid("t1.r0 == 0") // admitted => must fail
            .build();

    Verdict first = engine.submit(Request::forCheck(requiring));
    EXPECT_FALSE(first.cacheHit);
    EXPECT_TRUE(first.passed());

    Verdict second = engine.submit(Request::forCheck(forbids));
    EXPECT_TRUE(second.cacheHit);
    EXPECT_FALSE(second.passed());
}

TEST(Engine, WitnessRequestsBypassTheCache)
{
    Engine engine;
    Request plain = Request::forCheck(messagePassing());
    engine.submit(plain);

    Request withWitnesses = Request::forCheck(messagePassing());
    withWitnesses.check.showWitnesses = true;
    Verdict verdict = engine.submit(withWitnesses);
    EXPECT_FALSE(verdict.cacheHit);
    EXPECT_FALSE(verdict.check.witnesses.empty());

    Request withDot = Request::forCheck(messagePassing());
    withDot.check.dot = true;
    EXPECT_FALSE(engine.submit(withDot).cacheHit);
}

TEST(Engine, ModeChangeMissesTheCache)
{
    Engine engine;
    Request ptx75 = Request::forCheck(messagePassing());
    engine.submit(ptx75);

    Request ptx60 = Request::forCheck(messagePassing());
    ptx60.check.mode = model::ProxyMode::Ptx60;
    EXPECT_FALSE(engine.submit(ptx60).cacheHit);
    EXPECT_TRUE(engine.submit(ptx60).cacheHit);
}

TEST(Engine, ComparisonIsTwoCacheLookups)
{
    Engine engine;
    Request compare = Request::forCheck(messagePassing());
    compare.check.compareModels = true;

    Verdict cold = engine.submit(compare);
    EXPECT_FALSE(cold.cacheHit);
    EXPECT_FALSE(cold.comparisonCacheHit);
    ASSERT_TRUE(cold.comparison.has_value());

    Verdict warm = engine.submit(compare);
    EXPECT_TRUE(warm.cacheHit);
    EXPECT_TRUE(warm.comparisonCacheHit);
    EXPECT_EQ(warm.comparison->outcomes, cold.comparison->outcomes);
    EXPECT_EQ(renderReport(compare, warm), renderReport(compare, cold));
}

TEST(Engine, DisabledCacheNeverHits)
{
    EngineConfig config;
    config.cacheEnabled = false;
    Engine engine(config);
    Request request = Request::forCheck(messagePassing());
    EXPECT_FALSE(engine.submit(request).cacheHit);
    EXPECT_FALSE(engine.submit(request).cacheHit);
    EXPECT_EQ(engine.cache().size(), 0u);
}

TEST(Engine, LintOnlyRequestSkipsChecking)
{
    Engine engine;
    Verdict verdict = engine.submit(Request::forLint(messagePassing()));
    ASSERT_TRUE(verdict.lint.has_value());
    EXPECT_TRUE(verdict.check.outcomes.empty());
    EXPECT_FALSE(verdict.cacheHit);
}

TEST(Engine, SimulationRidesAlongUncached)
{
    Engine engine;
    Request request = Request::forCheck(messagePassing());
    request.sim.enabled = true;
    request.sim.iterations = 50;
    Verdict verdict = engine.submit(request);
    ASSERT_TRUE(verdict.sim.has_value());
    // The check half still participates in the cache.
    EXPECT_TRUE(engine.submit(request).cacheHit);
}

TEST(Engine, ColdAndWarmReportsAcrossTheCorpusAreIdentical)
{
    Engine engine;
    for (const litmus::LitmusTest &test : litmus::allTests()) {
        Request request = Request::forCheck(test);
        Verdict cold = engine.submit(request);
        Verdict warm = engine.submit(request);
        EXPECT_TRUE(warm.cacheHit) << test.name();
        EXPECT_EQ(renderReport(request, warm),
                  renderReport(request, cold))
            << test.name();
    }
}

} // namespace
