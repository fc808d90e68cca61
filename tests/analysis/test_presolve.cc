/**
 * @file
 * Tests for the static axiomatic pre-solver (docs/static_solver.md):
 * the may/must closures, the checker's exact single-candidate
 * evaluator, the verdicts of presolve::discharge, presolve::check under
 * each policy, and — the load-bearing property — a corpus-wide
 * differential suite asserting, under both models, that every
 * conclusive static verdict equals the enumerated one.
 */

#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/presolve/approx.hh"
#include "analysis/presolve/presolve.hh"
#include "litmus/parser.hh"
#include "litmus/registry.hh"
#include "model/checker.hh"
#include "model/program.hh"
#include "obs/obs.hh"

namespace {

using namespace mixedproxy;
namespace presolve = mixedproxy::analysis::presolve;

/** First non-init event satisfying @p pred, or -1. */
template <typename Pred>
relation::EventId
findEvent(const model::Program &program, Pred pred)
{
    for (const model::Event &e : program.events()) {
        if (!e.isInit && pred(e))
            return e.id;
    }
    return -1;
}

// ---------------------------------------------------------------------
// May / must closures
// ---------------------------------------------------------------------

TEST(Approx, MustIsSubsetOfMayOnEveryBuiltin)
{
    for (const auto &test : litmus::allTests()) {
        model::Program program(test, model::ProxyMode::Ptx75);
        auto may = presolve::mayBaseCausality(program);
        auto must = presolve::mustBaseCausality(program);
        for (std::size_t a = 0; a < program.size(); a++) {
            for (std::size_t b = 0; b < program.size(); b++) {
                if (must.contains(a, b)) {
                    EXPECT_TRUE(may.contains(a, b))
                        << test.name() << " " << a << "->" << b;
                }
            }
        }
    }
}

TEST(Approx, MayIncludesPotentialSynchronization)
{
    // Release write / acquire read across threads: no must edge (it
    // needs an rf), but the may closure includes the potential sw.
    auto test = litmus::testByName("fig9_message_passing");
    model::Program program(test, model::ProxyMode::Ptx75);
    auto may = presolve::mayBaseCausality(program);
    auto must = presolve::mustBaseCausality(program);

    auto rel = findEvent(program, [](const model::Event &e) {
        return e.isWrite() && litmus::hasRelease(e.sem);
    });
    auto acq = findEvent(program, [](const model::Event &e) {
        return e.isRead() && litmus::hasAcquire(e.sem);
    });
    ASSERT_GE(rel, 0);
    ASSERT_GE(acq, 0);
    EXPECT_TRUE(may.contains(rel, acq));
    EXPECT_FALSE(must.contains(rel, acq));
}

TEST(Approx, MustIsProgramOrderWithinAThread)
{
    auto test = litmus::testByName("fig9_message_passing");
    model::Program program(test, model::ProxyMode::Ptx75);
    auto must = presolve::mustBaseCausality(program);
    for (std::size_t a = 0; a < program.size(); a++) {
        for (std::size_t b = 0; b < program.size(); b++) {
            if (program.po().contains(a, b)) {
                EXPECT_TRUE(must.contains(a, b));
            }
        }
    }
}

TEST(Approx, MustProxyPreservedNeedsTheFenceChain)
{
    // One thread writes through [x] and reads it back through the
    // alias [y]: a mixed-proxy (two-generic-proxies) pair. With the
    // alias proxy fence between them §6.2.4 clause (3) bridges the
    // pair along the must path; without it no clause applies and the
    // pair must NOT be statically proxy-preserved.
    auto fenced = litmus::LitmusBuilder("alias_fenced")
                      .alias("y", "x")
                      .thread("t0", 0, 0,
                              {"st.global.u32 [x], 1",
                               "fence.proxy.alias",
                               "ld.global.u32 r0, [y]"})
                      .build();
    auto unfenced = litmus::LitmusBuilder("alias_unfenced")
                        .alias("y", "x")
                        .thread("t0", 0, 0,
                                {"st.global.u32 [x], 1",
                                 "ld.global.u32 r0, [y]"})
                        .build();

    for (bool with_fence : {true, false}) {
        model::Program program(with_fence ? fenced : unfenced,
                               model::ProxyMode::Ptx75);
        ASSERT_TRUE(program.usesMixedProxies());
        auto ppbc = presolve::mustProxyPreserved(program);
        auto w = findEvent(program, [](const model::Event &e) {
            return e.isWrite();
        });
        auto r = findEvent(program, [](const model::Event &e) {
            return e.isRead();
        });
        ASSERT_GE(w, 0);
        ASSERT_GE(r, 0);
        EXPECT_EQ(ppbc.contains(w, r), with_fence);
    }
}

TEST(Approx, MustProxyPreservedSameAddressGenericPair)
{
    // Same virtual address, generic proxy both sides: clause (1)
    // orders the must-related pair with no fence needed.
    auto test = litmus::LitmusBuilder("same_va")
                    .thread("t0", 0, 0,
                            {"st.global.u32 [x], 1",
                             "ld.global.u32 r0, [x]"})
                    .build();
    model::Program program(test, model::ProxyMode::Ptx75);
    auto ppbc = presolve::mustProxyPreserved(program);
    auto w = findEvent(program, [](const model::Event &e) {
        return e.isWrite();
    });
    auto r = findEvent(program, [](const model::Event &e) {
        return e.isRead();
    });
    EXPECT_TRUE(ppbc.contains(w, r));
}

// ---------------------------------------------------------------------
// model::evaluateCandidate — the exact single-candidate axiom core
// ---------------------------------------------------------------------

TEST(EvaluateCandidate, AcceptsTheObviousExecution)
{
    auto test = litmus::LitmusBuilder("wr")
                    .thread("t0", 0, 0,
                            {"st.global.u32 [x], 1",
                             "ld.global.u32 r0, [x]"})
                    .build();
    model::Program program(test, model::ProxyMode::Ptx75);
    auto w = findEvent(program, [](const model::Event &e) {
        return e.isWrite();
    });
    auto r = findEvent(program, [](const model::Event &e) {
        return e.isRead();
    });

    model::CandidateExecution candidate;
    candidate.sourceOf[r] = w;
    candidate.coOrders[program.event(w).location] = {w};
    auto outcome = model::evaluateCandidate(program, candidate);
    ASSERT_TRUE(outcome.has_value());
    EXPECT_EQ(outcome->reg("t0", "r0"), 1u);
    EXPECT_EQ(outcome->mem("x"), 1u);
}

TEST(EvaluateCandidate, RejectsCoherenceViolation)
{
    // Reading init past a same-thread po-earlier store violates
    // SC-per-Location (the fr edge closes a po cycle in the clique).
    auto test = litmus::LitmusBuilder("wr_stale")
                    .thread("t0", 0, 0,
                            {"st.global.u32 [x], 1",
                             "ld.global.u32 r0, [x]"})
                    .build();
    model::Program program(test, model::ProxyMode::Ptx75);
    auto w = findEvent(program, [](const model::Event &e) {
        return e.isWrite();
    });
    auto r = findEvent(program, [](const model::Event &e) {
        return e.isRead();
    });

    model::CandidateExecution candidate;
    candidate.sourceOf[r] = program.initWrite(program.event(w).location);
    candidate.coOrders[program.event(w).location] = {w};
    EXPECT_FALSE(
        model::evaluateCandidate(program, candidate).has_value());
}

TEST(EvaluateCandidate, RejectsMalformedCandidates)
{
    auto test = litmus::LitmusBuilder("wr2")
                    .thread("t0", 0, 0,
                            {"st.global.u32 [x], 1",
                             "ld.global.u32 r0, [x]"})
                    .build();
    model::Program program(test, model::ProxyMode::Ptx75);
    auto w = findEvent(program, [](const model::Event &e) {
        return e.isWrite();
    });

    // Unmapped read.
    model::CandidateExecution no_rf;
    no_rf.coOrders[program.event(w).location] = {w};
    EXPECT_FALSE(model::evaluateCandidate(program, no_rf).has_value());

    // Coherence order that is not a permutation of the live writes.
    auto r = findEvent(program, [](const model::Event &e) {
        return e.isRead();
    });
    model::CandidateExecution bad_co;
    bad_co.sourceOf[r] = w;
    bad_co.coOrders[program.event(w).location] = {w, w};
    EXPECT_FALSE(model::evaluateCandidate(program, bad_co).has_value());
}

// ---------------------------------------------------------------------
// presolve::discharge verdicts
// ---------------------------------------------------------------------

TEST(StaticSolver, DischargesMessagePassingCompletely)
{
    auto test = litmus::testByName("fig9_message_passing");
    model::Program program(test, model::ProxyMode::Ptx75);
    auto discharge = presolve::discharge(program);
    EXPECT_TRUE(discharge.discharged);
    ASSERT_EQ(discharge.assertions.size(), test.assertions().size());
    for (const auto &v : discharge.assertions) {
        EXPECT_TRUE(v.conclusive);
        EXPECT_TRUE(v.passed);
        EXPECT_TRUE(v.method == "unsat" || v.method == "witness")
            << v.method;
    }
}

TEST(StaticSolver, IriwStaysInconclusive)
{
    // The weak IRIW outcome needs a genuinely non-SC execution: no SC
    // witness produces it and the refutation engine cannot rule it
    // out, so the pre-solver must say "inconclusive" — never guess.
    auto test = litmus::testByName("fig2_iriw_weak");
    model::Program program(test, model::ProxyMode::Ptx75);
    auto discharge = presolve::discharge(program);
    EXPECT_FALSE(discharge.discharged);
    ASSERT_EQ(discharge.assertions.size(), 1u);
    EXPECT_FALSE(discharge.assertions[0].conclusive);
}

TEST(StaticSolver, DischargeIsAllOrNothing)
{
    // lb_data_dependency: one of its two assertions is statically
    // conclusive, the other is not — so the check as a whole must not
    // claim discharge.
    auto test = litmus::testByName("lb_data_dependency");
    model::Program program(test, model::ProxyMode::Ptx75);
    auto discharge = presolve::discharge(program);
    ASSERT_EQ(discharge.assertions.size(), 2u);
    bool any_conclusive = false, all_conclusive = true;
    for (const auto &v : discharge.assertions) {
        any_conclusive |= v.conclusive;
        all_conclusive &= v.conclusive;
    }
    EXPECT_TRUE(any_conclusive);
    EXPECT_FALSE(all_conclusive);
    EXPECT_FALSE(discharge.discharged);
}

TEST(StaticSolver, NoAssertionsMeansNoDischarge)
{
    auto test = litmus::LitmusBuilder("bare")
                    .thread("t0", 0, 0, {"st.global.u32 [x], 1"})
                    .build();
    model::Program program(test, model::ProxyMode::Ptx75);
    auto discharge = presolve::discharge(program);
    EXPECT_FALSE(discharge.discharged);
    EXPECT_TRUE(discharge.assertions.empty());
}

// ---------------------------------------------------------------------
// The pre-solver in front of the checker
// ---------------------------------------------------------------------

constexpr model::ProxyMode kModes[] = {model::ProxyMode::Ptx75,
                                       model::ProxyMode::Ptx60};

model::CheckResult
checkWithPolicy(const litmus::LitmusTest &test,
                model::PresolvePolicy policy,
                model::ProxyMode mode = model::ProxyMode::Ptx75)
{
    model::CheckOptions opts;
    opts.mode = mode;
    opts.collectWitnesses = false;
    return presolve::check(test, opts, policy);
}

TEST(CheckerPresolve, OnPolicySkipsEnumerationWhenDischarged)
{
    auto test = litmus::testByName("fig9_message_passing");
    auto result = checkWithPolicy(test, model::PresolvePolicy::On);
    ASSERT_TRUE(result.staticallyDischarged.has_value());
    EXPECT_TRUE(result.staticallyDischarged->discharged);
    EXPECT_TRUE(result.outcomes.empty());
    EXPECT_EQ(result.stats.candidateExecutions, 0u);
    EXPECT_TRUE(result.allPassed());
    EXPECT_NE(result.summary().find("statically discharged"),
              std::string::npos);
}

TEST(CheckerPresolve, OnPolicyFallsBackWhenInconclusive)
{
    auto test = litmus::testByName("fig2_iriw_weak");
    auto result = checkWithPolicy(test, model::PresolvePolicy::On);
    ASSERT_TRUE(result.staticallyDischarged.has_value());
    EXPECT_FALSE(result.staticallyDischarged->discharged);
    // Fallback enumerated for real and produced the exact verdict.
    EXPECT_FALSE(result.outcomes.empty());
    auto baseline = checkWithPolicy(test, model::PresolvePolicy::Off);
    EXPECT_EQ(result.outcomes, baseline.outcomes);
}

TEST(CheckerPresolve, OnlyPolicyNeverEnumerates)
{
    auto test = litmus::testByName("fig2_iriw_weak");
    auto result = checkWithPolicy(test, model::PresolvePolicy::Only);
    ASSERT_EQ(result.assertions.size(), 1u);
    EXPECT_FALSE(result.assertions[0].passed);
    EXPECT_NE(
        result.assertions[0].detail.find("statically inconclusive"),
        std::string::npos);

    // No built-in is enumerated under Only, whatever its verdicts and
    // under either model.
    for (auto mode : kModes) {
        for (const auto &builtin : litmus::allTests()) {
            auto only =
                checkWithPolicy(builtin, model::PresolvePolicy::Only, mode);
            EXPECT_EQ(only.stats.rfAssignments, 0u) << builtin.name();
            EXPECT_EQ(only.stats.candidateExecutions, 0u)
                << builtin.name();
            EXPECT_TRUE(only.outcomes.empty()) << builtin.name();
            EXPECT_TRUE(only.staticallyDischarged.has_value())
                << builtin.name();
            EXPECT_EQ(only.assertions.size(), builtin.assertions().size())
                << builtin.name();
        }
    }
}

TEST(CheckerPresolve, DischargedTestOpensNoCheckSpan)
{
    // The pre-solver runs in front of the checker: both tests are
    // expanded and presolved once, and only the inconclusive one opens
    // the checker's "check" span.
    obs::Session session;
    session.enable();
    {
        obs::ScopedSession bind(&session);
        checkWithPolicy(litmus::testByName("fig9_message_passing"),
                        model::PresolvePolicy::On);
        checkWithPolicy(litmus::testByName("fig2_iriw_weak"),
                        model::PresolvePolicy::On);
    }
    session.disable();
    const auto &metrics = session.metrics;
    EXPECT_EQ(metrics.timer("check.expand").count, 2u);
    EXPECT_EQ(metrics.timer("check.presolve").count, 2u);
    EXPECT_EQ(metrics.timer("check").count, 1u);
    EXPECT_EQ(metrics.timer("check.enumerate").count, 1u);
    EXPECT_EQ(metrics.counter("check.presolve.discharged"), 1u);
    EXPECT_EQ(metrics.counter("check.presolve.inconclusive"), 1u);
}

// ---------------------------------------------------------------------
// Differential suite: static verdicts vs full enumeration, corpus-wide
// and under both models
// ---------------------------------------------------------------------

void
expectSoundVerdicts(const litmus::LitmusTest &test, model::ProxyMode mode)
{
    auto exact = checkWithPolicy(test, model::PresolvePolicy::Off, mode);
    if (exact.budgetExceeded)
        return; // nothing exact to compare against
    auto fused = checkWithPolicy(test, model::PresolvePolicy::On, mode);
    auto static_only =
        checkWithPolicy(test, model::PresolvePolicy::Only, mode);
    const std::string where =
        test.name() + " (" + model::toString(mode) + ")";

    // presolve=on is always exact: verdict-for-verdict identical.
    ASSERT_EQ(fused.assertions.size(), exact.assertions.size()) << where;
    for (std::size_t i = 0; i < exact.assertions.size(); i++) {
        EXPECT_EQ(fused.assertions[i].passed,
                  exact.assertions[i].passed)
            << where << " assertion " << i;
    }

    // presolve=only: every *conclusive* verdict agrees with
    // enumeration (the soundness contract; inconclusive carries no
    // claim).
    ASSERT_TRUE(static_only.staticallyDischarged.has_value()) << where;
    const auto &sd = *static_only.staticallyDischarged;
    for (std::size_t i = 0;
         i < sd.assertions.size() && i < exact.assertions.size(); i++) {
        if (!sd.assertions[i].conclusive)
            continue;
        EXPECT_EQ(sd.assertions[i].passed, exact.assertions[i].passed)
            << where << " assertion " << i << " ("
            << sd.assertions[i].method << ": "
            << sd.assertions[i].detail << ")";
    }
}

TEST(PresolveDifferential, EveryBuiltinAgrees)
{
    for (auto mode : kModes) {
        std::size_t conclusive_somewhere = 0;
        for (const auto &test : litmus::allTests()) {
            expectSoundVerdicts(test, mode);
            model::Program program(test, mode);
            for (const auto &v : presolve::discharge(program).assertions)
                conclusive_somewhere += v.conclusive ? 1 : 0;
        }
        // The pre-solver must actually bite on the corpus, not just
        // stay vacuously sound by answering "inconclusive" everywhere.
        EXPECT_GT(conclusive_somewhere, 20u) << model::toString(mode);
    }
}

TEST(PresolveDifferential, EveryCorpusFileAgrees)
{
    namespace fs = std::filesystem;
    for (const char *dir :
         {MIXEDPROXY_CORPUS_DIR, MIXEDPROXY_ANALYSIS_CASES_DIR}) {
        std::size_t seen = 0;
        for (const auto &entry : fs::directory_iterator(dir)) {
            if (entry.path().extension() != ".litmus")
                continue;
            seen++;
            const auto test = litmus::parseTestFile(entry.path().string());
            for (auto mode : kModes)
                expectSoundVerdicts(test, mode);
        }
        EXPECT_GT(seen, 0u) << dir;
    }
}

} // namespace
