/**
 * @file
 * Unit and property tests for the litmus-test synthesizer (§6.3).
 */

#include <gtest/gtest.h>

#include "litmus/registry.hh"
#include "model/checker.hh"
#include "model/sc.hh"
#include "obs/obs.hh"
#include "relation/error.hh"
#include "synth/generator.hh"
#include "synth/mutate.hh"

#include "collect.hh"

namespace {

using namespace mixedproxy;
using namespace mixedproxy::synth;
using synth_tests::runCollecting;

SynthOptions
smallOptions(std::size_t instructions, bool with_proxies)
{
    SynthOptions opts;
    opts.instructions = instructions;
    opts.maxThreads = 2;
    opts.maxLocations = 2;
    opts.withProxies = with_proxies;
    opts.withAtomics = false;
    return opts;
}

TEST(Synthesizer, RejectsBadOptions)
{
    SynthOptions opts;
    opts.maxLocations = 3;
    EXPECT_THROW(Synthesizer{opts}, FatalError);
    opts = SynthOptions{};
    opts.instructions = 0;
    EXPECT_THROW(Synthesizer{opts}, FatalError);
    opts = SynthOptions{};
    opts.maxThreads = 0;
    EXPECT_THROW(Synthesizer{opts}, FatalError);
}

TEST(Synthesizer, TwoInstructionRunFindsTheFig4Race)
{
    // With the proxy alphabet, a 2-instruction single-thread program
    // (store + constant alias load) is already proxy-sensitive.
    const auto run = runCollecting(smallOptions(2, true));
    const auto &report = run.report;
    EXPECT_GT(report.stats.uniquePrograms, 0u);
    EXPECT_GT(report.stats.proxySensitive, 0u) << report.summary();
    bool found = false;
    for (const auto &entry : run.interesting) {
        if (entry.proxySensitive && entry.ptx75Outcomes == 2 &&
            entry.ptx60Outcomes == 1) {
            found = true;
        }
    }
    EXPECT_TRUE(found) << report.summary();
}

TEST(Synthesizer, NoProxyAlphabetFindsNoProxySensitivity)
{
    auto report = Synthesizer(smallOptions(3, false)).run();
    EXPECT_EQ(report.stats.proxySensitive, 0u) << report.summary();
}

TEST(Synthesizer, FindsWeakBehaviorsAtFourInstructions)
{
    // Message passing / store buffering shapes appear at n == 4.
    auto report = Synthesizer(smallOptions(4, false)).run();
    EXPECT_GT(report.stats.weak, 0u) << report.summary();
}

TEST(Synthesizer, FenceMinimalityIsNotApplicableAboveThree)
{
    // Above kMaxFenceMinimalInstructions a run does not judge
    // fence-minimality: the summary says so instead of printing a
    // count of 0, and the metric is not published.
    obs::Session session;
    session.enable();
    auto opts = smallOptions(kMaxFenceMinimalInstructions + 1, true);
    opts.maxUniquePrograms = 200;
    opts.session = &session;
    const auto report = Synthesizer(opts).run();
    EXPECT_FALSE(report.stats.fenceMinimalCounted);
    EXPECT_NE(report.summary().find(", fence-minimal n/a in "),
              std::string::npos)
        << report.summary();
    EXPECT_EQ(session.metrics.counters().count("synth.fence_minimal"),
              0u);
    EXPECT_EQ(session.metrics.counters().count("synth.weak"), 1u);

    // At the limit the count is printed and published.
    session.metrics.clear();
    opts.instructions = kMaxFenceMinimalInstructions;
    const auto counted = Synthesizer(opts).run();
    EXPECT_TRUE(counted.stats.fenceMinimalCounted);
    EXPECT_NE(counted.summary().find(
                  ", fence-minimal " +
                  std::to_string(counted.stats.fenceMinimal) + " in "),
              std::string::npos)
        << counted.summary();
    EXPECT_EQ(session.metrics.counters().count("synth.fence_minimal"),
              1u);
}

TEST(Synthesizer, DedupReducesPrograms)
{
    auto report = Synthesizer(smallOptions(2, false)).run();
    EXPECT_LT(report.stats.uniquePrograms, report.stats.afterPruning)
        << report.summary();
    EXPECT_LE(report.stats.afterPruning,
              report.stats.programsEnumerated);
}

TEST(Synthesizer, MaxUniqueProgramsStopsEarly)
{
    auto opts = smallOptions(3, true);
    opts.maxUniquePrograms = 5;
    auto report = Synthesizer(opts).run();
    EXPECT_EQ(report.stats.uniquePrograms, 5u);
}

TEST(Synthesizer, GeneratedTestsAreWellFormed)
{
    auto opts = smallOptions(3, true);
    opts.maxUniquePrograms = 50;
    const auto run = runCollecting(opts);
    for (const auto &entry : run.interesting) {
        EXPECT_NO_THROW(entry.test.validate()) << entry.test.toString();
        EXPECT_GE(entry.ptx75Outcomes, 1u);
    }
}

TEST(Synthesizer, InterestingTestsSatisfyScSubset)
{
    // Spot-check the synthesized corpus against the SC oracle.
    auto opts = smallOptions(3, true);
    opts.maxUniquePrograms = 40;
    const auto run = runCollecting(opts);
    model::CheckOptions mopts;
    mopts.collectWitnesses = false;
    model::Checker checker(mopts);
    for (const auto &entry : run.interesting) {
        const model::Program program(entry.test, model::ProxyMode::Ptx75);
        auto allowed = checker.check(program).outcomes;
        for (const auto &outcome : model::scOutcomes(program)) {
            EXPECT_TRUE(allowed.count(outcome))
                << entry.test.toString() << outcome.toString();
        }
    }
}

TEST(Synthesizer, SummaryMentionsCounts)
{
    auto report = Synthesizer(smallOptions(2, false)).run();
    auto text = report.summary();
    EXPECT_NE(text.find("unique"), std::string::npos);
    EXPECT_NE(text.find("proxy-sensitive"), std::string::npos);
}

TEST(Synthesizer, AsyncAlphabetFindsAsyncSensitivity)
{
    // st [y]; cp.async [x],[y]; wait: PTX 7.5 lets the copy engine read
    // the stale source; PTX 6.0 (async proxy erased) does not.
    SynthOptions opts;
    opts.instructions = 3;
    opts.maxThreads = 1;
    opts.withProxies = false;
    opts.withFences = false;
    opts.withReleaseAcquire = false;
    opts.withAsync = true;
    opts.classifyFenceMinimal = false;
    const auto run = runCollecting(opts);
    const auto &report = run.report;
    EXPECT_GT(report.stats.proxySensitive, 0u) << report.summary();
    bool has_async = false;
    for (const auto &entry : run.interesting) {
        for (const auto &thread : entry.test.threads()) {
            for (const auto &instr : thread.instructions) {
                has_async |=
                    instr.opcode == litmus::Opcode::CpAsync;
            }
        }
    }
    EXPECT_TRUE(has_async);
}

TEST(Synthesizer, BarrierAlphabetValidatesAndRuns)
{
    SynthOptions opts;
    opts.instructions = 3;
    opts.maxThreads = 2;
    opts.withProxies = false;
    opts.withFences = false;
    opts.withReleaseAcquire = false;
    opts.withBarriers = true;
    opts.classifyFenceMinimal = false;
    const auto run = runCollecting(opts);
    const auto &report = run.report;
    // Mismatched-barrier programs are silently skipped; the rest
    // check cleanly.
    EXPECT_GT(report.stats.checked, 0u) << report.summary();
    for (const auto &entry : run.interesting)
        EXPECT_NO_THROW(entry.test.validate());
}

TEST(Synthesizer, ParallelRunMatchesSerialRun)
{
    // The determinism contract: --jobs N reproduces the serial report
    // exactly — same stats, same interesting tests in the same order
    // with the same names and classifications. Only the wall-clock
    // seconds figure may differ.
    auto opts = smallOptions(3, true);
    const auto serialRun = runCollecting(opts);
    opts.jobs = 4;
    const auto parallelRun = runCollecting(opts);
    const auto &serial = serialRun.report;
    const auto &parallel = parallelRun.report;

    EXPECT_EQ(serial.stats.programsEnumerated,
              parallel.stats.programsEnumerated);
    EXPECT_EQ(serial.stats.afterPruning, parallel.stats.afterPruning);
    EXPECT_EQ(serial.stats.uniquePrograms,
              parallel.stats.uniquePrograms);
    EXPECT_EQ(serial.stats.checked, parallel.stats.checked);
    EXPECT_EQ(serial.stats.skippedTooExpensive,
              parallel.stats.skippedTooExpensive);
    EXPECT_EQ(serial.stats.weak, parallel.stats.weak);
    EXPECT_EQ(serial.stats.proxySensitive,
              parallel.stats.proxySensitive);
    EXPECT_EQ(serial.stats.fenceMinimal, parallel.stats.fenceMinimal);

    ASSERT_EQ(serialRun.interesting.size(), parallelRun.interesting.size());
    for (std::size_t i = 0; i < serialRun.interesting.size(); i++) {
        const auto &a = serialRun.interesting[i];
        const auto &b = parallelRun.interesting[i];
        EXPECT_EQ(a.test.name(), b.test.name()) << "entry " << i;
        EXPECT_EQ(a.test.toString(), b.test.toString());
        EXPECT_EQ(a.weak, b.weak);
        EXPECT_EQ(a.proxySensitive, b.proxySensitive);
        EXPECT_EQ(a.fenceMinimal, b.fenceMinimal);
        EXPECT_EQ(a.ptx75Outcomes, b.ptx75Outcomes);
        EXPECT_EQ(a.ptx60Outcomes, b.ptx60Outcomes);
    }
}

/**
 * A copy of @p test (address map and threads, no assertions) with
 * @p fence inserted before instruction @p index of thread @p thread.
 */
litmus::LitmusTest
withFence(const litmus::LitmusTest &test, std::size_t thread,
          std::size_t index, const litmus::Instruction &fence)
{
    litmus::LitmusTest out(test.name() + "_fenced");
    for (const auto &loc : test.locations()) {
        for (const auto &va : test.addressesOf(loc)) {
            if (va != loc)
                out.addAlias(va, loc);
        }
        if (test.initOf(loc) != 0)
            out.setInit(loc, test.initOf(loc));
    }
    for (std::size_t t = 0; t < test.threads().size(); t++) {
        litmus::Thread copy = test.threads()[t];
        if (t == thread) {
            copy.instructions.insert(
                copy.instructions.begin() +
                    static_cast<std::ptrdiff_t>(index),
                fence);
        }
        out.addThread(std::move(copy));
    }
    return out;
}

TEST(Synthesizer, SingleProxyPruningRuleHolds)
{
    // The rule behind single-proxy pruning (docs/static_solver.md
    // "Synthesis pruning"): for a program whose PTX 7.5 expansion uses
    // one proxy, the PTX 6.0 outcome set equals the PTX 7.5 one, and
    // removing any proxy fence leaves the PTX 7.5 set unchanged. The
    // programs are every built-in and every test an n=3 run reports,
    // each single-proxy one also with a proxy fence inserted between
    // two of its instructions. Both models run with the checker's
    // single-proxy fast path off, so the reference sets do not rest on
    // the same classification.
    std::vector<litmus::LitmusTest> tests = litmus::allTests();
    SynthOptions opts;
    opts.instructions = 3;
    opts.sink = [&](SynthesizedTest &&entry) {
        tests.push_back(std::move(entry.test));
    };
    Synthesizer(opts).run();
    const std::size_t sampled = tests.size();
    for (std::size_t i = 0; i < sampled; i++) {
        const litmus::LitmusTest base = tests[i];
        if (model::Program(base, model::ProxyMode::Ptx75)
                .usesMixedProxies())
            continue;
        for (std::size_t t = 0; t < base.threads().size(); t++) {
            for (std::size_t j = 1;
                 j < base.threads()[t].instructions.size(); j++) {
                for (const char *fence :
                     {"fence.proxy.alias", "fence.proxy.constant"})
                    tests.push_back(
                        withFence(base, t, j, litmus::decode(fence)));
            }
        }
    }

    model::CheckOptions check75;
    check75.collectWitnesses = false;
    check75.staticFastPath = false;
    model::CheckOptions check60 = check75;
    check60.mode = model::ProxyMode::Ptx60;
    const model::Checker checker75(check75);
    const model::Checker checker60(check60);

    std::size_t single_proxy = 0;
    std::size_t fence_removals = 0;
    for (const auto &test : tests) {
        const model::Program program(test, model::ProxyMode::Ptx75);
        if (program.usesMixedProxies())
            continue;
        single_proxy++;
        const auto r75 = checker75.check(program);
        ASSERT_FALSE(r75.budgetExceeded) << test.name();
        EXPECT_EQ(checker60.check(test).outcomes, r75.outcomes)
            << test.name();
        for (std::size_t t = 0; t < test.threads().size(); t++) {
            const auto &instrs = test.threads()[t].instructions;
            for (std::size_t j = 0; j < instrs.size(); j++) {
                if (instrs[j].opcode != litmus::Opcode::FenceProxy)
                    continue;
                fence_removals++;
                EXPECT_EQ(
                    checker75.check(withoutInstruction(test, t, j))
                        .outcomes,
                    r75.outcomes)
                    << test.name() << " without t" << t << "[" << j
                    << "]";
            }
        }
    }
    // Both halves of the rule are exercised.
    EXPECT_GT(single_proxy, 0u);
    EXPECT_GT(fence_removals, 0u);
}

TEST(Synthesizer, EveryCheckOpensOneCheckSpan)
{
    // Each model check of a synthesis run is one "check" span with one
    // "check.expand" and one "check.enumerate" (the run's own PTX 7.5
    // expansion is timed as check.expand too). At n=3 that is 6,120
    // checks (PTX 7.5, PTX 6.0 where pruning does not answer it, fence
    // rechecks), and each of the 3,168 unique programs is materialized,
    // classified and run through the SC walk once.
    obs::Session session;
    session.enable();
    SynthOptions opts;
    opts.instructions = 3;
    {
        obs::ScopedSession bind(&session);
        Synthesizer(opts).run();
    }
    session.disable();
    const auto &metrics = session.metrics;
    EXPECT_EQ(metrics.timer("check").count, 6120u);
    EXPECT_EQ(metrics.timer("check.expand").count, 6120u);
    EXPECT_EQ(metrics.timer("check.enumerate").count, 6120u);
    EXPECT_EQ(metrics.timer("synth.materialize").count, 3168u);
    EXPECT_EQ(metrics.timer("synth.check").count, 3168u);
    EXPECT_EQ(metrics.timer("synth.sc").count, 3168u);
}

TEST(Synthesizer, ParallelRunRespectsMaxUniquePrograms)
{
    auto opts = smallOptions(3, true);
    opts.maxUniquePrograms = 5;
    opts.jobs = 4;
    auto report = Synthesizer(opts).run();
    EXPECT_EQ(report.stats.uniquePrograms, 5u);
}

TEST(Synthesizer, SinkReceivesTheInterestingTestsInReportOrder)
{
    // The sink contract: at any worker count the sink sees the same
    // entries in the same order, one per test the stats count as
    // interesting.
    auto opts = smallOptions(3, true);
    const auto baseline = runCollecting(opts);
    ASSERT_FALSE(baseline.interesting.empty());
    std::uint64_t weak = 0;
    for (const auto &entry : baseline.interesting)
        weak += entry.weak ? 1 : 0;
    EXPECT_EQ(weak, baseline.report.stats.weak);
    for (std::size_t jobs : {1, 4}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        opts.jobs = jobs;
        const auto run = runCollecting(opts);
        const auto &received = run.interesting;
        EXPECT_EQ(run.report.stats.weak, baseline.report.stats.weak);
        ASSERT_EQ(received.size(), baseline.interesting.size());
        for (std::size_t i = 0; i < received.size(); i++) {
            const auto &a = baseline.interesting[i];
            const auto &b = received[i];
            EXPECT_EQ(a.test.toString(), b.test.toString()) << i;
            EXPECT_EQ(a.weak, b.weak);
            EXPECT_EQ(a.proxySensitive, b.proxySensitive);
            EXPECT_EQ(a.fenceMinimal, b.fenceMinimal);
            EXPECT_EQ(a.ptx75Outcomes, b.ptx75Outcomes);
            EXPECT_EQ(a.ptx60Outcomes, b.ptx60Outcomes);
        }
    }
}

TEST(Synthesizer, SinkErrorPropagatesOutOfRun)
{
    for (std::size_t jobs : {1, 4}) {
        auto opts = smallOptions(3, true);
        opts.jobs = jobs;
        std::size_t calls = 0;
        opts.sink = [&](SynthesizedTest &&) {
            calls++;
            fatal("sink refused");
        };
        EXPECT_THROW(Synthesizer(opts).run(), FatalError) << jobs;
        EXPECT_EQ(calls, 1u);
    }
}

TEST(Synthesizer, GrowthIsExponential)
{
    // The §6.3 scaling claim, in miniature: the enumeration grows by
    // more than 3x per added instruction.
    auto opts2 = smallOptions(2, false);
    opts2.classifyFenceMinimal = false;
    auto opts3 = smallOptions(3, false);
    opts3.classifyFenceMinimal = false;
    auto r2 = Synthesizer(opts2).run();
    auto r3 = Synthesizer(opts3).run();
    EXPECT_GT(r3.stats.programsEnumerated,
              3 * r2.stats.programsEnumerated);
}

} // namespace
