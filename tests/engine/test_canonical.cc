/**
 * @file
 * The golden canonical-key suite: engine::canonicalize().key must be
 * invariant under thread permutation, thread renaming, virtual-
 * address renaming, and register renaming — over the entire built-in
 * corpus, not just hand-picked examples — and must separate tests whose
 * verdicts differ. Where two corpus tests do share a key, the suite
 * proves the claim the verdict cache rests on: their admitted outcome
 * sets are identical modulo the rename maps.
 */

#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/canonical.hh"
#include "litmus/registry.hh"
#include "litmus/test.hh"
#include "model/checker.hh"
#include "relation/error.hh"

#include "rename.hh"

namespace {

using namespace mixedproxy;
using namespace mixedproxy::engine_tests;

litmus::LitmusTest
messagePassing()
{
    return litmus::LitmusBuilder("mp")
        .thread("t0", 0, 0,
                {"st.global.u32 [x], 1", "st.release.gpu.u32 [f], 1"})
        .thread("t1", 1, 0,
                {"ld.acquire.gpu.u32 r0, [f]", "ld.global.u32 r1, [x]"})
        .require("!(t1.r0 == 1) || t1.r1 == 1")
        .build();
}

TEST(CanonicalKey, InvariantUnderThreadPermutation)
{
    for (const litmus::LitmusTest &test : litmus::allTests()) {
        RenamePlan plan;
        plan.threadOrder.resize(test.threads().size());
        std::iota(plan.threadOrder.begin(), plan.threadOrder.end(), 0);
        std::reverse(plan.threadOrder.begin(), plan.threadOrder.end());
        EXPECT_EQ(engine::canonicalize(test).key,
                  engine::canonicalize(applyRename(test, plan)).key)
            << "thread permutation changed the key of " << test.name();
    }
}

TEST(CanonicalKey, InvariantUnderThreadRenaming)
{
    for (const litmus::LitmusTest &test : litmus::allTests()) {
        RenamePlan plan;
        std::size_t i = 0;
        for (const litmus::Thread &thread : test.threads())
            plan.threads[thread.name] =
                "zzthread" + std::to_string(i++);
        EXPECT_EQ(engine::canonicalize(test).key,
                  engine::canonicalize(applyRename(test, plan)).key)
            << "thread renaming changed the key of " << test.name();
    }
}

TEST(CanonicalKey, InvariantUnderAddressRenaming)
{
    for (const litmus::LitmusTest &test : litmus::allTests()) {
        RenamePlan plan;
        std::size_t i = 0;
        for (const std::string &location : test.locations())
            for (const std::string &va : test.addressesOf(location))
                plan.addresses[va] = "zzaddr" + std::to_string(i++);
        EXPECT_EQ(engine::canonicalize(test).key,
                  engine::canonicalize(applyRename(test, plan)).key)
            << "address renaming changed the key of " << test.name();
    }
}

TEST(CanonicalKey, InvariantUnderRegisterRenaming)
{
    for (const litmus::LitmusTest &test : litmus::allTests()) {
        RenamePlan plan = freshNamePlan(test, false);
        plan.threads.clear();
        plan.addresses.clear();
        EXPECT_EQ(engine::canonicalize(test).key,
                  engine::canonicalize(applyRename(test, plan)).key)
            << "register renaming changed the key of " << test.name();
    }
}

TEST(CanonicalKey, InvariantUnderEverythingAtOnce)
{
    for (const litmus::LitmusTest &test : litmus::allTests()) {
        RenamePlan plan = freshNamePlan(test, true);
        EXPECT_EQ(engine::canonicalize(test).key,
                  engine::canonicalize(applyRename(test, plan)).key)
            << "combined renaming changed the key of " << test.name();
    }
}

TEST(CanonicalKey, IgnoresTestNameAndAssertions)
{
    litmus::LitmusTest a = messagePassing();
    litmus::LitmusTest b =
        litmus::LitmusBuilder("completely_different_name")
            .thread("t0", 0, 0,
                    {"st.global.u32 [x], 1",
                     "st.release.gpu.u32 [f], 1"})
            .thread("t1", 1, 0,
                    {"ld.acquire.gpu.u32 r0, [f]",
                     "ld.global.u32 r1, [x]"})
            .forbid("t1.r0 == 1 && t1.r1 == 0")
            .build();
    EXPECT_EQ(engine::canonicalize(a).key, engine::canonicalize(b).key);
}

TEST(CanonicalKey, SeparatesSemanticsInitsAliasesAndPlacement)
{
    const std::string base = engine::canonicalize(messagePassing()).key;

    litmus::LitmusTest weaker =
        litmus::LitmusBuilder("mp")
            .thread("t0", 0, 0,
                    {"st.global.u32 [x], 1", "st.relaxed.gpu.u32 [f], 1"})
            .thread("t1", 1, 0,
                    {"ld.acquire.gpu.u32 r0, [f]",
                     "ld.global.u32 r1, [x]"})
            .require("!(t1.r0 == 1) || t1.r1 == 1")
            .build();
    EXPECT_NE(base, engine::canonicalize(weaker).key);

    litmus::LitmusTest withInit =
        litmus::LitmusBuilder("mp")
            .init("x", 7)
            .thread("t0", 0, 0,
                    {"st.global.u32 [x], 1",
                     "st.release.gpu.u32 [f], 1"})
            .thread("t1", 1, 0,
                    {"ld.acquire.gpu.u32 r0, [f]",
                     "ld.global.u32 r1, [x]"})
            .require("!(t1.r0 == 1) || t1.r1 == 1")
            .build();
    EXPECT_NE(base, engine::canonicalize(withInit).key);

    litmus::LitmusTest aliased =
        litmus::LitmusBuilder("mp")
            .alias("x", "f")
            .thread("t0", 0, 0,
                    {"st.global.u32 [x], 1",
                     "st.release.gpu.u32 [f], 1"})
            .thread("t1", 1, 0,
                    {"ld.acquire.gpu.u32 r0, [f]",
                     "ld.global.u32 r1, [x]"})
            .require("!(t1.r0 == 1) || t1.r1 == 1")
            .build();
    EXPECT_NE(base, engine::canonicalize(aliased).key);

    litmus::LitmusTest sameCta =
        litmus::LitmusBuilder("mp")
            .thread("t0", 0, 0,
                    {"st.global.u32 [x], 1",
                     "st.release.gpu.u32 [f], 1"})
            .thread("t1", 0, 0,
                    {"ld.acquire.gpu.u32 r0, [f]",
                     "ld.global.u32 r1, [x]"})
            .require("!(t1.r0 == 1) || t1.r1 == 1")
            .build();
    EXPECT_NE(base, engine::canonicalize(sameCta).key);
}

TEST(CanonicalKey, SeparatesDifferentVerdictCorpusTests)
{
    // Paired tests whose verdicts the paper distinguishes (weak vs.
    // fenced) must never collide.
    const char *pairs[][2] = {
        {"fig2_iriw_weak", "fig2_iriw_fence_sc"},
    };
    for (const auto &pair : pairs) {
        EXPECT_NE(
            engine::canonicalize(litmus::testByName(pair[0])).key,
            engine::canonicalize(litmus::testByName(pair[1])).key)
            << pair[0] << " vs " << pair[1];
    }
}

TEST(CanonicalKey, CorpusCollisionsAreTrueIsomorphisms)
{
    // Group the corpus by key; any group larger than one must contain
    // only tests with identical *canonical* outcome sets — i.e. a
    // shared key is a genuine isomorphism, never an unsound merge.
    std::map<std::string, std::vector<const litmus::LitmusTest *>>
        byKey;
    for (const litmus::LitmusTest &test : litmus::allTests())
        byKey[engine::canonicalize(test).key].push_back(&test);

    model::CheckOptions opts;
    opts.collectWitnesses = false;
    model::Checker checker(opts);
    for (const auto &[key, group] : byKey) {
        if (group.size() < 2)
            continue;
        std::set<std::set<litmus::Outcome>> canonicalOutcomeSets;
        for (const litmus::LitmusTest *test : group) {
            engine::CanonicalForm form = engine::canonicalize(*test);
            std::set<litmus::Outcome> canonical;
            for (const litmus::Outcome &outcome :
                 checker.check(*test).outcomes)
                canonical.insert(form.toCanonical(outcome));
            canonicalOutcomeSets.insert(std::move(canonical));
        }
        EXPECT_EQ(canonicalOutcomeSets.size(), 1u)
            << group.size() << " corpus tests share a key but admit "
            << "different canonical outcome sets (first: "
            << group[0]->name() << ")";
    }
}

TEST(CanonicalForm, OutcomeTranslationRoundTrips)
{
    litmus::LitmusTest test = messagePassing();
    engine::CanonicalForm form = engine::canonicalize(test);

    litmus::Outcome outcome;
    outcome.registers["t1.r0"] = 1;
    outcome.registers["t1.r1"] = 1;
    outcome.memory["x"] = 1;
    outcome.memory["f"] = 1;

    litmus::Outcome canonical = form.toCanonical(outcome);
    EXPECT_EQ(form.fromCanonical(canonical), outcome);

    // The canonical outcome speaks only the canonical namespace.
    for (const auto &[reg, value] : canonical.registers)
        EXPECT_EQ(reg.find("zz"), std::string::npos) << reg;
    for (const auto &[reg, value] : canonical.registers)
        EXPECT_EQ(reg[0], 't') << reg;
    for (const auto &[loc, value] : canonical.memory)
        EXPECT_EQ(loc[0], 'm') << loc;
}

TEST(CanonicalForm, RenamedTestsTranslateToTheSameCanonicalOutcome)
{
    litmus::LitmusTest test = messagePassing();
    RenamePlan plan = freshNamePlan(test, true);
    litmus::LitmusTest variant = applyRename(test, plan);
    ASSERT_EQ(engine::canonicalize(test).key,
              engine::canonicalize(variant).key);

    model::CheckOptions opts;
    opts.collectWitnesses = false;
    model::Checker checker(opts);

    engine::CanonicalForm formA = engine::canonicalize(test);
    engine::CanonicalForm formB = engine::canonicalize(variant);

    std::set<litmus::Outcome> a;
    for (const litmus::Outcome &outcome : checker.check(test).outcomes)
        a.insert(formA.toCanonical(outcome));
    std::set<litmus::Outcome> b;
    for (const litmus::Outcome &outcome :
         checker.check(variant).outcomes)
        b.insert(formB.toCanonical(outcome));
    EXPECT_EQ(a, b);
}

TEST(CanonicalForm, RejectsUnknownNames)
{
    engine::CanonicalForm form = engine::canonicalize(messagePassing());
    litmus::Outcome bogus;
    bogus.registers["t9.r9"] = 1;
    EXPECT_THROW(form.toCanonical(bogus), PanicError);
    litmus::Outcome corrupt;
    corrupt.registers["t7.r7"] = 1;
    EXPECT_THROW(form.fromCanonical(corrupt), PanicError);
}

} // namespace
