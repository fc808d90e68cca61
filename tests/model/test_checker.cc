/**
 * @file
 * Unit tests for the axiomatic checker: axiom-by-axiom behavior,
 * PTX 6.0 vs PTX 7.5 contrasts, witnesses, and statistics.
 */

#include <algorithm>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "litmus/parser.hh"
#include "litmus/registry.hh"
#include "litmus/test.hh"
#include "model/checker.hh"
#include "obs/metrics.hh"
#include "relation/error.hh"
#include "runtime/parallel.hh"

namespace {

using namespace mixedproxy;
using namespace mixedproxy::model;
using litmus::LitmusBuilder;
using litmus::LitmusTest;
using litmus::parseCondition;

CheckResult
run(const LitmusTest &test, ProxyMode mode = ProxyMode::Ptx75)
{
    CheckOptions opts;
    opts.mode = mode;
    return Checker(opts).check(test);
}

bool
admits(const CheckResult &result, const std::string &condition)
{
    return result.admits(parseCondition(condition));
}

TEST(Checker, SingleThreadSameAddressCoherence)
{
    auto test = LitmusBuilder("corr")
                    .thread("t0", 0, 0, {"st.global.u32 [x], 1",
                                         "ld.global.u32 r1, [x]"})
                    .permit("t0.r1 == 1")
                    .build();
    auto result = run(test);
    // The only outcome is reading one's own store.
    ASSERT_EQ(result.outcomes.size(), 1u);
    EXPECT_TRUE(admits(result, "t0.r1 == 1"));
    EXPECT_FALSE(admits(result, "t0.r1 == 0"));
}

TEST(Checker, InitValueRespected)
{
    auto test = LitmusBuilder("init")
                    .init("x", 7)
                    .thread("t0", 0, 0, {"ld.global.u32 r1, [x]"})
                    .permit("t0.r1 == 7")
                    .build();
    auto result = run(test);
    ASSERT_EQ(result.outcomes.size(), 1u);
    EXPECT_TRUE(admits(result, "t0.r1 == 7 && [x] == 7"));
}

TEST(Checker, FinalMemoryFollowsCoherence)
{
    auto test = LitmusBuilder("coww")
                    .thread("t0", 0, 0, {"st.global.u32 [x], 1",
                                         "st.global.u32 [x], 2"})
                    .permit("[x] == 2")
                    .build();
    auto result = run(test);
    ASSERT_EQ(result.outcomes.size(), 1u);
    EXPECT_TRUE(admits(result, "[x] == 2"));
}

TEST(Checker, MessagePassingReleaseAcquire)
{
    auto test = LitmusBuilder("mp")
                    .thread("t0", 0, 0, {"st.global.u32 [x], 42",
                                         "st.release.cta.u32 [y], 1"})
                    .thread("t1", 0, 0, {"ld.acquire.cta.u32 r1, [y]",
                                         "ld.global.u32 r2, [x]"})
                    .permit("t1.r1 == 0")
                    .build();
    auto result = run(test);
    EXPECT_TRUE(admits(result, "t1.r1 == 1 && t1.r2 == 42"));
    EXPECT_TRUE(admits(result, "t1.r1 == 0 && t1.r2 == 0"));
    EXPECT_TRUE(admits(result, "t1.r1 == 0 && t1.r2 == 42"));
    // The stale-payload outcome is forbidden.
    EXPECT_FALSE(admits(result, "t1.r1 == 1 && t1.r2 == 0"));
}

TEST(Checker, MessagePassingScopeTooNarrow)
{
    auto test = LitmusBuilder("mp_narrow")
                    .thread("t0", 0, 0, {"st.global.u32 [x], 42",
                                         "st.release.cta.u32 [y], 1"})
                    .thread("t1", 1, 0, {"ld.acquire.cta.u32 r1, [y]",
                                         "ld.global.u32 r2, [x]"})
                    .permit("t1.r1 == 0")
                    .build();
    auto result = run(test);
    EXPECT_TRUE(admits(result, "t1.r1 == 1 && t1.r2 == 0"));
}

TEST(Checker, WeakFlagDoesNotSynchronize)
{
    auto test = LitmusBuilder("mp_weak")
                    .thread("t0", 0, 0, {"st.global.u32 [x], 42",
                                         "st.global.u32 [y], 1"})
                    .thread("t1", 0, 0, {"ld.global.u32 r1, [y]",
                                         "ld.global.u32 r2, [x]"})
                    .permit("t1.r1 == 0")
                    .build();
    auto result = run(test);
    EXPECT_TRUE(admits(result, "t1.r1 == 1 && t1.r2 == 0"));
}

TEST(Checker, StoreBufferingScFencesForbid)
{
    auto test = LitmusBuilder("sb")
                    .thread("t0", 0, 0, {"st.relaxed.gpu.u32 [x], 1",
                                         "fence.sc.gpu",
                                         "ld.relaxed.gpu.u32 r1, [y]"})
                    .thread("t1", 1, 0, {"st.relaxed.gpu.u32 [y], 1",
                                         "fence.sc.gpu",
                                         "ld.relaxed.gpu.u32 r2, [x]"})
                    .permit("t0.r1 == 1")
                    .build();
    auto result = run(test);
    EXPECT_FALSE(admits(result, "t0.r1 == 0 && t1.r2 == 0"));
    EXPECT_TRUE(admits(result, "t0.r1 == 1 && t1.r2 == 1"));
    EXPECT_TRUE(admits(result, "t0.r1 == 0 && t1.r2 == 1"));
}

TEST(Checker, StoreBufferingWithoutFencesAllowed)
{
    auto test = LitmusBuilder("sb_plain")
                    .thread("t0", 0, 0, {"st.relaxed.gpu.u32 [x], 1",
                                         "ld.relaxed.gpu.u32 r1, [y]"})
                    .thread("t1", 1, 0, {"st.relaxed.gpu.u32 [y], 1",
                                         "ld.relaxed.gpu.u32 r2, [x]"})
                    .permit("t0.r1 == 0")
                    .build();
    auto result = run(test);
    EXPECT_TRUE(admits(result, "t0.r1 == 0 && t1.r2 == 0"));
}

TEST(Checker, LoadBufferingAllowedWithoutDeps)
{
    auto test = LitmusBuilder("lb")
                    .thread("t0", 0, 0, {"ld.relaxed.gpu.u32 r1, [x]",
                                         "st.relaxed.gpu.u32 [y], 1"})
                    .thread("t1", 1, 0, {"ld.relaxed.gpu.u32 r2, [y]",
                                         "st.relaxed.gpu.u32 [x], 1"})
                    .permit("t0.r1 == 0")
                    .build();
    auto result = run(test);
    EXPECT_TRUE(admits(result, "t0.r1 == 1 && t1.r2 == 1"));
}

TEST(Checker, ThinAirForbiddenWithDeps)
{
    auto test = LitmusBuilder("lb_dep")
                    .thread("t0", 0, 0, {"ld.relaxed.gpu.u32 r1, [x]",
                                         "st.relaxed.gpu.u32 [y], r1"})
                    .thread("t1", 1, 0, {"ld.relaxed.gpu.u32 r2, [y]",
                                         "st.relaxed.gpu.u32 [x], r2"})
                    .permit("t0.r1 == 0")
                    .build();
    auto result = run(test);
    EXPECT_FALSE(admits(result, "t0.r1 == 1 || t1.r2 == 1"));
    EXPECT_TRUE(admits(result, "t0.r1 == 0 && t1.r2 == 0"));
}

TEST(Checker, AtomicAddsSerialize)
{
    auto test = LitmusBuilder("atoms")
                    .thread("t0", 0, 0, {"atom.add.u32 r1, [x], 1"})
                    .thread("t1", 1, 0, {"atom.add.u32 r2, [x], 1"})
                    .permit("t0.r1 == 0")
                    .build();
    auto result = run(test);
    EXPECT_FALSE(admits(result, "t0.r1 == 0 && t1.r2 == 0"));
    EXPECT_TRUE(admits(result, "t0.r1 == 0 && t1.r2 == 1"));
    EXPECT_TRUE(admits(result, "t0.r1 == 1 && t1.r2 == 0"));
    for (const auto &outcome : result.outcomes)
        EXPECT_EQ(outcome.mem("x"), 2u) << outcome.toString();
}

TEST(Checker, WeakWriteMayIntervizeBetweenAtomics)
{
    // PTX quirk: atomicity only excludes *morally strong* intervening
    // writes, so a weak store can split an RMW.
    auto test = LitmusBuilder("weak_intervene")
                    .thread("t0", 0, 0, {"atom.add.u32 r1, [x], 1"})
                    .thread("t1", 1, 0, {"st.global.u32 [x], 5"})
                    .permit("t0.r1 == 0")
                    .build();
    auto result = run(test);
    // The weak store may land between the RMW's read and write:
    // read 0, weak store 5 intervenes, RMW writes 1 over it.
    EXPECT_TRUE(admits(result, "t0.r1 == 0 && [x] == 1"));
}

TEST(Checker, CasSuccessAndFailure)
{
    auto test = LitmusBuilder("cas")
                    .thread("t0", 0, 0, {"atom.cas.u32 r1, [x], 0, 1"})
                    .thread("t1", 1, 0, {"atom.cas.u32 r2, [x], 0, 2"})
                    .permit("t0.r1 == 0")
                    .build();
    auto result = run(test);
    EXPECT_FALSE(admits(result, "t0.r1 == 0 && t1.r2 == 0"));
    EXPECT_TRUE(admits(result, "t0.r1 == 0 && t1.r2 == 1 && [x] == 1"));
    EXPECT_TRUE(admits(result, "t0.r1 == 2 && t1.r2 == 0 && [x] == 2"));
}

TEST(Checker, FailedCasDoesNotPublish)
{
    auto test = LitmusBuilder("cas_fail")
                    .init("x", 9)
                    .thread("t0", 0, 0, {"atom.cas.u32 r1, [x], 0, 1"})
                    .permit("t0.r1 == 9")
                    .build();
    auto result = run(test);
    ASSERT_EQ(result.outcomes.size(), 1u);
    EXPECT_TRUE(admits(result, "t0.r1 == 9 && [x] == 9"));
}

TEST(Checker, ReleaseSequenceThroughRmw)
{
    auto test = LitmusBuilder("relseq")
                    .thread("t0", 0, 0, {"st.global.u32 [x], 42",
                                         "st.release.gpu.u32 [y], 1"})
                    .thread("t1", 1, 0,
                            {"atom.relaxed.gpu.add.u32 r1, [y], 1"})
                    .thread("t2", 2, 0, {"ld.acquire.gpu.u32 r2, [y]",
                                         "ld.global.u32 r3, [x]"})
                    .permit("t2.r2 == 0")
                    .build();
    auto result = run(test);
    // Observing the RMW's write (value 2) implies observing the payload.
    EXPECT_FALSE(admits(result, "t2.r2 == 2 && t2.r3 == 0"));
    EXPECT_TRUE(admits(result, "t2.r2 == 2 && t2.r3 == 42"));
}

// ---- Proxy behavior (the paper's core) --------------------------------

TEST(Checker, MixedProxyIntraThreadRace)
{
    // Fig. 4: without a proxy fence the stale constant value is visible,
    // and a generic fence does not help.
    auto base = [](const std::string &fence) {
        LitmusBuilder b("fig4");
        b.alias("c", "g");
        std::vector<std::string> instrs{"st.global.u32 [g], 42"};
        if (!fence.empty())
            instrs.push_back(fence);
        instrs.push_back("ld.const.u32 r1, [c]");
        b.thread("t0", 0, 0, instrs);
        b.permit("t0.r1 == 0 || t0.r1 == 42");
        return b.build();
    };

    auto nofence = run(base(""));
    EXPECT_TRUE(admits(nofence, "t0.r1 == 0"));
    EXPECT_TRUE(admits(nofence, "t0.r1 == 42"));

    auto generic = run(base("fence.acq_rel.gpu"));
    EXPECT_TRUE(admits(generic, "t0.r1 == 0"));

    auto sc_sys = run(base("fence.sc.sys"));
    EXPECT_TRUE(admits(sc_sys, "t0.r1 == 0"));

    auto proxy = run(base("fence.proxy.constant"));
    EXPECT_FALSE(admits(proxy, "t0.r1 == 0"));
    EXPECT_TRUE(admits(proxy, "t0.r1 == 42"));
}

TEST(Checker, Ptx60BaselineCannotSeeTheRace)
{
    // The proxy-oblivious model wrongly requires 42 in Fig. 4's
    // no-fence variant: this is exactly the gap the paper fills.
    auto test = LitmusBuilder("fig4_60")
                    .alias("c", "g")
                    .thread("t0", 0, 0, {"st.global.u32 [g], 42",
                                         "ld.const.u32 r1, [c]"})
                    .permit("t0.r1 == 42")
                    .build();
    auto r75 = run(test, ProxyMode::Ptx75);
    auto r60 = run(test, ProxyMode::Ptx60);
    EXPECT_TRUE(admits(r75, "t0.r1 == 0"));
    EXPECT_FALSE(admits(r60, "t0.r1 == 0"));
    EXPECT_TRUE(admits(r60, "t0.r1 == 42"));
}

TEST(Checker, AliasFenceRestoresSameLocationOrdering)
{
    auto make = [](bool fence) {
        LitmusBuilder b("alias");
        b.alias("rd2", "rd1");
        std::vector<std::string> instrs{"st.global.u32 [rd1], 42"};
        if (fence)
            instrs.push_back("fence.proxy.alias");
        instrs.push_back("ld.global.u32 r3, [rd2]");
        b.thread("t0", 0, 0, instrs);
        b.permit("t0.r3 == 42");
        return b.build();
    };
    EXPECT_TRUE(admits(run(make(false)), "t0.r3 == 0"));
    EXPECT_FALSE(admits(run(make(true)), "t0.r3 == 0"));
}

TEST(Checker, ProxyFenceMustBeInNonGenericCta)
{
    // Fig. 8e: wrong-CTA fence leaves the stale value observable.
    auto make = [](bool fence_in_reader) {
        LitmusBuilder b("fig8e");
        b.alias("rd2", "rd1");
        std::vector<std::string> t0{"st.global.u32 [rd1], 42"};
        if (!fence_in_reader)
            t0.push_back("fence.proxy.constant");
        t0.push_back("st.release.gpu.u32 [rd4], 1");
        std::vector<std::string> t1{"ld.acquire.gpu.u32 r5, [rd4]"};
        if (fence_in_reader)
            t1.push_back("fence.proxy.constant");
        t1.push_back("ld.const.u32 r3, [rd2]");
        b.thread("t0", 0, 0, t0);
        b.thread("t1", 1, 0, t1);
        b.permit("t1.r5 == 0");
        return b.build();
    };
    EXPECT_TRUE(
        admits(run(make(false)), "t1.r5 == 1 && t1.r3 == 0"));
    EXPECT_FALSE(
        admits(run(make(true)), "t1.r5 == 1 && t1.r3 == 0"));
}

TEST(Checker, DoubleProxyFenceOrderMatters)
{
    // Fig. 8f.
    auto make = [](const std::string &first, const std::string &second) {
        return LitmusBuilder("fig8f")
            .alias("rd2", "surf")
            .thread("t0", 0, 0,
                    {"sust.b.u32 [surf], 42", first, second,
                     "ld.const.u32 r3, [rd2]"})
            .permit("t0.r3 == 0 || t0.r3 == 42")
            .build();
    };
    auto good =
        run(make("fence.proxy.surface", "fence.proxy.constant"));
    EXPECT_FALSE(admits(good, "t0.r3 == 0"));
    auto bad =
        run(make("fence.proxy.constant", "fence.proxy.surface"));
    EXPECT_TRUE(admits(bad, "t0.r3 == 0"));
}

TEST(Checker, CumulativityAcrossCtas)
{
    // §7.1: a proxy fence inside the CTA composes with later inter-CTA
    // synchronization.
    auto test =
        LitmusBuilder("cumulative")
            .alias("rd2", "rd1")
            .thread("t0", 0, 0, {"sust.b.u32 [rd1], 42",
                                 "fence.proxy.surface",
                                 "st.release.gpu.u32 [f], 1"})
            .thread("t1", 1, 0, {"ld.acquire.gpu.u32 r1, [f]",
                                 "ld.global.u32 r2, [rd2]"})
            .permit("t1.r1 == 0")
            .build();
    auto result = run(test);
    EXPECT_FALSE(admits(result, "t1.r1 == 1 && t1.r2 == 0"));
    EXPECT_TRUE(admits(result, "t1.r1 == 1 && t1.r2 == 42"));
}

TEST(Checker, TextureReadsAreStaleWithoutProxyFence)
{
    auto make = [](bool fence) {
        LitmusBuilder b("tex");
        b.alias("t", "x");
        std::vector<std::string> t1{"ld.acquire.gpu.u32 r1, [f]"};
        if (fence)
            t1.push_back("fence.proxy.texture");
        t1.push_back("tex.1d.u32 r2, [t]");
        b.thread("t0", 0, 0, {"st.global.u32 [x], 7",
                              "st.release.gpu.u32 [f], 1"});
        b.thread("t1", 1, 0, t1);
        b.permit("t1.r1 == 0");
        return b.build();
    };
    EXPECT_TRUE(admits(run(make(false)), "t1.r1 == 1 && t1.r2 == 0"));
    EXPECT_FALSE(admits(run(make(true)), "t1.r1 == 1 && t1.r2 == 0"));
}

TEST(Checker, AssertionVerdictsAndDetails)
{
    auto test = LitmusBuilder("verdicts")
                    .thread("t0", 0, 0, {"ld.global.u32 r1, [x]"})
                    .require("t0.r1 == 0")
                    .permit("t0.r1 == 0")
                    .forbid("t0.r1 == 1")
                    .permit("t0.r1 == 1") // fails
                    .build();
    auto result = run(test);
    ASSERT_EQ(result.assertions.size(), 4u);
    EXPECT_TRUE(result.assertions[0].passed);
    EXPECT_TRUE(result.assertions[1].passed);
    EXPECT_TRUE(result.assertions[2].passed);
    EXPECT_FALSE(result.assertions[3].passed);
    EXPECT_FALSE(result.allPassed());
    EXPECT_NE(result.summary().find("FAIL"), std::string::npos);
}

TEST(Checker, WitnessesRecorded)
{
    auto test = LitmusBuilder("wit")
                    .thread("t0", 0, 0, {"st.global.u32 [x], 1",
                                         "ld.global.u32 r1, [x]"})
                    .permit("t0.r1 == 1")
                    .build();
    auto result = run(test);
    ASSERT_EQ(result.witnesses.size(), result.outcomes.size());
    const auto &witness = result.witnesses.begin()->second;
    EXPECT_FALSE(witness.events.empty());
    EXPECT_FALSE(witness.rf.empty());
    EXPECT_NE(witness.toString().find("rf"), std::string::npos);
}

TEST(Checker, WitnessDotRendering)
{
    auto test = LitmusBuilder("dot")
                    .thread("t0", 0, 0, {"st.global.u32 [x], 1",
                                         "st.release.gpu.u32 [y], 1"})
                    .thread("t1", 1, 0, {"ld.acquire.gpu.u32 r1, [y]",
                                         "ld.global.u32 r2, [x]"})
                    .permit("t1.r1 == 1 && t1.r2 == 1")
                    .build();
    auto result = run(test);
    const model::Witness *synced = nullptr;
    for (const auto &[outcome, witness] : result.witnesses) {
        if (outcome.reg("t1", "r1") == 1)
            synced = &witness;
    }
    ASSERT_NE(synced, nullptr);
    std::string dot = synced->toDot("dot_test");
    EXPECT_NE(dot.find("digraph \"dot_test\""), std::string::npos);
    EXPECT_NE(dot.find("label=\"t0\""), std::string::npos);
    EXPECT_NE(dot.find("label=\"rf\""), std::string::npos);
    EXPECT_NE(dot.find("label=\"sw\""), std::string::npos);
    // Structured edges agree with the string dumps.
    EXPECT_EQ(synced->rfEdges.size(), synced->rf.size());
    EXPECT_FALSE(synced->poEdges.empty());
    // Reduced po: one edge per thread of two instructions.
    EXPECT_EQ(synced->poEdges.size(), 2u);
}

TEST(Checker, StatsAreCounted)
{
    auto test = LitmusBuilder("stats")
                    .thread("t0", 0, 0, {"st.global.u32 [x], 1"})
                    .thread("t1", 1, 0, {"ld.global.u32 r1, [x]"})
                    .permit("t1.r1 == 0 || t1.r1 == 1")
                    .build();
    auto result = run(test);
    EXPECT_EQ(result.stats.rfAssignments, 2u);
    EXPECT_GE(result.stats.candidateExecutions, 2u);
    EXPECT_EQ(result.stats.consistentExecutions,
              result.stats.candidateExecutions);
}

TEST(Checker, MaxExecutionsGuard)
{
    CheckOptions opts;
    opts.maxExecutions = 1;
    auto test = LitmusBuilder("guard")
                    .thread("t0", 0, 0, {"st.global.u32 [x], 1"})
                    .thread("t1", 1, 0, {"ld.global.u32 r1, [x]",
                                         "ld.global.u32 r2, [x]"})
                    .permit("t1.r1 == 0")
                    .build();
    // Exceeding the budget is a structured verdict, not an error: the
    // partial result comes back flagged, reads as inconclusive (never
    // a pass), and says so in the summary.
    auto result = Checker(opts).check(test);
    EXPECT_TRUE(result.budgetExceeded);
    EXPECT_FALSE(result.allPassed());
    EXPECT_LE(result.stats.candidateExecutions, 2u);
    EXPECT_NE(result.summary().find("BUDGET EXCEEDED"),
              std::string::npos);
}

TEST(Checker, BudgetNotExceededOnCompleteEnumeration)
{
    auto test = LitmusBuilder("no_guard")
                    .thread("t0", 0, 0, {"st.global.u32 [x], 1"})
                    .thread("t1", 1, 0, {"ld.global.u32 r1, [x]"})
                    .permit("t1.r1 == 0")
                    .build();
    auto result = Checker().check(test);
    EXPECT_FALSE(result.budgetExceeded);
    EXPECT_TRUE(result.allPassed());
}

TEST(Checker, Ptx75IsConservativeOverPtx60OnProxyFreePrograms)
{
    // On programs with no aliases and no non-generic accesses, the two
    // variants must agree exactly. (The full-corpus sweep lives in
    // test_paper_figures.cc.)
    auto test = LitmusBuilder("agree")
                    .thread("t0", 0, 0, {"st.global.u32 [x], 1",
                                         "st.release.gpu.u32 [y], 1"})
                    .thread("t1", 1, 0, {"ld.acquire.gpu.u32 r1, [y]",
                                         "ld.global.u32 r2, [x]"})
                    .permit("t1.r1 == 0")
                    .build();
    auto r75 = run(test, ProxyMode::Ptx75);
    auto r60 = run(test, ProxyMode::Ptx60);
    EXPECT_EQ(r75.outcomes, r60.outcomes);
}

TEST(CheckerProfile, RejectionCountersSumOverFigureCorpus)
{
    // The profiler's attribution contract (ISSUE 8): on any completed
    // enumeration every non-consistent candidate is charged to exactly
    // one candidate-level axiom, and the depth histogram covers every
    // examined candidate.
    std::size_t covered = 0;
    for (const std::string &name : litmus::testNames()) {
        if (name.rfind("fig8", 0) != 0 && name.rfind("fig9", 0) != 0)
            continue;
        auto result = run(litmus::testByName(name));
        ASSERT_FALSE(result.budgetExceeded) << name;
        const CheckStats &s = result.stats;
        EXPECT_EQ(s.rejectCausalityB + s.rejectScPerLocation +
                      s.rejectAtomicity + s.rejectFenceSc,
                  s.candidateExecutions - s.consistentExecutions)
            << name;
        std::uint64_t depth_sum = 0;
        for (std::uint64_t bucket : s.depthHistogram)
            depth_sum += bucket;
        EXPECT_EQ(depth_sum, s.candidateExecutions) << name;
        covered++;
    }
    EXPECT_GE(covered, 15u);
}

TEST(CheckerProfile, BranchingCountersMatchProgramShape)
{
    auto test = LitmusBuilder("branching")
                    .thread("t0", 0, 0, {"st.global.u32 [x], 1"})
                    .thread("t1", 1, 0, {"ld.global.u32 r1, [x]"})
                    .permit("t1.r1 == 0 || t1.r1 == 1")
                    .build();
    auto result = run(test);
    const CheckStats &s = result.stats;
    // One read with two candidate sources (the init write and t0's
    // store): two rf assignments, each seeing the one location with a
    // live write and its single admissible coherence order.
    EXPECT_EQ(s.enumReads, 1u);
    EXPECT_EQ(s.enumSourceSlots, 2u);
    EXPECT_EQ(s.rfAssignments, 2u);
    EXPECT_EQ(s.coLocations, s.rfAssignments);
    EXPECT_EQ(s.coOrders, s.coLocations);
    // Depth = reads = 1; every candidate lands in bucket 1.
    EXPECT_EQ(s.depthHistogram[1], s.candidateExecutions);
}

TEST(CheckerEnumCore, BudgetCutoffChargesWholeAssignments)
{
    // The budget is charged one rf assignment at a time. At every
    // budget the flag says exactly whether the program has more
    // candidates than the budget, the count never overshoots it, and
    // what was enumerated before the stop is part of the full answer.
    const auto &test = litmus::testByName("fig9_message_passing");
    const CheckResult full = Checker().check(test);
    ASSERT_FALSE(full.budgetExceeded);
    const std::uint64_t total = full.stats.candidateExecutions;
    ASSERT_GT(total, 2u);
    bool sawPartialOutcomes = false;
    for (std::uint64_t budget = 0; budget <= total; budget++) {
        CheckOptions opts;
        opts.maxExecutions = budget;
        const CheckResult r = Checker(opts).check(test);
        const std::string ctx = "budget=" + std::to_string(budget);
        EXPECT_EQ(r.budgetExceeded, budget < total) << ctx;
        EXPECT_LE(r.stats.candidateExecutions, budget) << ctx;
        EXPECT_TRUE(std::includes(full.outcomes.begin(),
                                  full.outcomes.end(),
                                  r.outcomes.begin(), r.outcomes.end()))
            << ctx;
        if (r.budgetExceeded) {
            EXPECT_FALSE(r.allPassed()) << ctx;
            sawPartialOutcomes |= !r.outcomes.empty();
        } else {
            EXPECT_EQ(r.outcomes, full.outcomes) << ctx;
            EXPECT_EQ(r.stats.candidateExecutions, total) << ctx;
        }
    }
    EXPECT_TRUE(sawPartialOutcomes);
}

TEST(CheckerEnumCore, LayerCountersAccountTheIncrementalWork)
{
    // fig8a_alias_fence: multi-read, multi-location — the layered
    // engine must reuse the base layer once per surviving assignment
    // and apply rf deltas instead of re-closing.
    auto result = run(litmus::testByName("fig8a_alias_fence"));
    const CheckStats &s = result.stats;
    EXPECT_GT(s.layerBaseReuse, 0u);
    EXPECT_GT(s.layerRfDelta, 0u);
    // The delta engine never re-runs the observation fixpoint to a
    // fixed point per assignment: productive passes stay strictly
    // below the number of rf assignments on fence/atomic-free tests.
    EXPECT_LT(s.fixpointIterations, s.rfAssignments);
}

TEST(CheckerProfile, DisabledSamplingPublishesNoSampledCounters)
{
    obs::Session session;
    session.enable();
    {
        obs::ScopedSession bind(&session);
        Checker().check(litmus::testByName("fig9_message_passing"));
    }
    session.disable();
    // Only the always-on profiler groups are published; no timing
    // counter rides along.
    for (const auto &[name, value] : session.metrics.counters()) {
        const std::string prefix = "checker.enum.";
        if (name.compare(0, prefix.size(), prefix) != 0)
            continue;
        const std::string group = name.substr(prefix.size());
        EXPECT_TRUE(group.rfind("reject.", 0) == 0 ||
                    group.rfind("depth.", 0) == 0 ||
                    group.rfind("rf.", 0) == 0 ||
                    group.rfind("co.", 0) == 0)
            << name;
    }
    EXPECT_GT(session.metrics.counter(
                  "checker.enum.reject.causality_b") +
                  session.metrics.counter("checker.consistent"),
              0u);
}

/** Everything a check reports: verdicts, outcomes, counters, witnesses. */
std::string
fingerprint(const CheckResult &result)
{
    std::ostringstream os;
    os << result.summary();
    obs::MetricsRegistry registry;
    result.stats.publish(registry);
    for (const auto &[name, value] : registry.counters())
        os << name << "=" << value << "\n";
    for (const auto &[outcome, witness] : result.witnesses)
        os << outcome << "\n" << witness.toString();
    return os.str();
}

TEST(CheckerEnumCore, ScratchReuseAcrossSizesIsInvisible)
{
    // The enumeration core keeps its working storage per thread and
    // reuses it across checks. No check may see what an earlier one,
    // larger or smaller, left there: small, large, small on one
    // thread, and that sequence repeated on a 4-worker pool, each give
    // the result of a check on a fresh thread.
    const LitmusTest *small = nullptr;
    const LitmusTest *large = nullptr;
    std::size_t small_size = 0, large_size = 0;
    for (const auto &test : litmus::allTests()) {
        const std::size_t size = Program(test, ProxyMode::Ptx75).size();
        if (!small || size < small_size) {
            small = &test;
            small_size = size;
        }
        if (!large || size > large_size) {
            large = &test;
            large_size = size;
        }
    }
    ASSERT_LT(small_size, large_size);
    EXPECT_LT(Program(*small, ProxyMode::Ptx75).locationCount(),
              Program(*large, ProxyMode::Ptx75).locationCount());

    auto on_fresh_thread = [](const LitmusTest &test) {
        std::string out;
        std::thread([&] { out = fingerprint(Checker().check(test)); })
            .join();
        return out;
    };
    const std::string small_ref = on_fresh_thread(*small);
    const std::string large_ref = on_fresh_thread(*large);

    const std::vector<const LitmusTest *> sequence{small, large, small};
    std::thread([&] {
        for (const LitmusTest *test : sequence) {
            EXPECT_EQ(fingerprint(Checker().check(*test)),
                      test == small ? small_ref : large_ref)
                << test->name();
        }
    }).join();

    std::vector<std::string> pooled(4 * sequence.size());
    runtime::parallelFor(pooled.size(), 4, [&](std::size_t i) {
        pooled[i] =
            fingerprint(Checker().check(*sequence[i % sequence.size()]));
    });
    for (std::size_t i = 0; i < pooled.size(); i++) {
        EXPECT_EQ(pooled[i], i % sequence.size() == 1 ? large_ref
                                                      : small_ref)
            << i;
    }
}

} // namespace
