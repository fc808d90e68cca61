/**
 * @file
 * Unit and property tests for the litmus-test synthesizer (§6.3).
 */

#include <gtest/gtest.h>

#include "model/checker.hh"
#include "relation/error.hh"
#include "synth/generator.hh"
#include "synth/sc_reference.hh"

namespace {

using namespace mixedproxy;
using namespace mixedproxy::synth;

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
    auto report = Synthesizer(smallOptions(2, true)).run();
    EXPECT_GT(report.stats.uniquePrograms, 0u);
    EXPECT_GT(report.stats.proxySensitive, 0u) << report.summary();
    bool found = false;
    for (const auto &entry : report.interesting) {
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
    auto opts = smallOptions(4, false);
    opts.classifyFenceMinimal = false; // keep the test fast
    auto report = Synthesizer(opts).run();
    EXPECT_GT(report.stats.weak, 0u) << report.summary();
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
    auto report = Synthesizer(opts).run();
    for (const auto &entry : report.interesting) {
        EXPECT_NO_THROW(entry.test.validate()) << entry.test.toString();
        EXPECT_GE(entry.ptx75Outcomes, 1u);
    }
}

TEST(Synthesizer, InterestingTestsSatisfyScSubset)
{
    // Spot-check the synthesized corpus against the SC oracle.
    auto opts = smallOptions(3, true);
    opts.maxUniquePrograms = 40;
    auto report = Synthesizer(opts).run();
    model::CheckOptions mopts;
    mopts.collectWitnesses = false;
    model::Checker checker(mopts);
    for (const auto &entry : report.interesting) {
        auto allowed = checker.check(entry.test).outcomes;
        for (const auto &outcome : scOutcomes(entry.test)) {
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
    auto report = Synthesizer(opts).run();
    EXPECT_GT(report.stats.proxySensitive, 0u) << report.summary();
    bool has_async = false;
    for (const auto &entry : report.interesting) {
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
    auto report = Synthesizer(opts).run();
    // Mismatched-barrier programs are silently skipped; the rest
    // check cleanly.
    EXPECT_GT(report.stats.checked, 0u) << report.summary();
    for (const auto &entry : report.interesting)
        EXPECT_NO_THROW(entry.test.validate());
}

TEST(Synthesizer, ParallelRunMatchesSerialRun)
{
    // The determinism contract: --jobs N reproduces the serial report
    // exactly — same stats, same interesting tests in the same order
    // with the same names and classifications. Only the wall-clock
    // seconds figure may differ.
    auto opts = smallOptions(3, true);
    auto serial = Synthesizer(opts).run();
    opts.jobs = 4;
    auto parallel = Synthesizer(opts).run();

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

    ASSERT_EQ(serial.interesting.size(), parallel.interesting.size());
    for (std::size_t i = 0; i < serial.interesting.size(); i++) {
        const auto &a = serial.interesting[i];
        const auto &b = parallel.interesting[i];
        EXPECT_EQ(a.test.name(), b.test.name()) << "entry " << i;
        EXPECT_EQ(a.test.toString(), b.test.toString());
        EXPECT_EQ(a.weak, b.weak);
        EXPECT_EQ(a.proxySensitive, b.proxySensitive);
        EXPECT_EQ(a.fenceMinimal, b.fenceMinimal);
        EXPECT_EQ(a.ptx75Outcomes, b.ptx75Outcomes);
        EXPECT_EQ(a.ptx60Outcomes, b.ptx60Outcomes);
        EXPECT_EQ(a.scOutcomeCount, b.scOutcomeCount);
    }
}

TEST(Synthesizer, PresolvePruningPreservesTheReportExactly)
{
    // The pruning-oracle contract (docs/static_solver.md): skipping
    // the checks the pre-solver proves redundant changes nothing but
    // the wall clock. Same stats, same interesting tests in the same
    // order with the same classifications and outcome counts — and
    // the same summary text (modulo the seconds figure, which we keep
    // out of the comparison by comparing fields, not strings).
    auto opts = smallOptions(3, true);
    opts.presolve = false;
    auto baseline = Synthesizer(opts).run();
    opts.presolve = true;
    auto pruned = Synthesizer(opts).run();

    EXPECT_EQ(baseline.stats.programsEnumerated,
              pruned.stats.programsEnumerated);
    EXPECT_EQ(baseline.stats.afterPruning, pruned.stats.afterPruning);
    EXPECT_EQ(baseline.stats.uniquePrograms,
              pruned.stats.uniquePrograms);
    EXPECT_EQ(baseline.stats.checked, pruned.stats.checked);
    EXPECT_EQ(baseline.stats.skippedTooExpensive,
              pruned.stats.skippedTooExpensive);
    EXPECT_EQ(baseline.stats.weak, pruned.stats.weak);
    EXPECT_EQ(baseline.stats.proxySensitive,
              pruned.stats.proxySensitive);
    EXPECT_EQ(baseline.stats.fenceMinimal, pruned.stats.fenceMinimal);

    // The oracle must actually skip work, and only when enabled.
    EXPECT_EQ(baseline.stats.presolvePrunedPtx60, 0u);
    EXPECT_EQ(baseline.stats.presolvePrunedFenceChecks, 0u);
    EXPECT_GT(pruned.stats.presolvePrunedPtx60, 0u);
    EXPECT_GT(pruned.stats.presolvePrunedFenceChecks, 0u);

    ASSERT_EQ(baseline.interesting.size(), pruned.interesting.size());
    for (std::size_t i = 0; i < baseline.interesting.size(); i++) {
        const auto &a = baseline.interesting[i];
        const auto &b = pruned.interesting[i];
        EXPECT_EQ(a.test.name(), b.test.name()) << "entry " << i;
        EXPECT_EQ(a.test.toString(), b.test.toString());
        EXPECT_EQ(a.weak, b.weak);
        EXPECT_EQ(a.proxySensitive, b.proxySensitive);
        EXPECT_EQ(a.fenceMinimal, b.fenceMinimal);
        EXPECT_EQ(a.ptx75Outcomes, b.ptx75Outcomes);
        EXPECT_EQ(a.ptx60Outcomes, b.ptx60Outcomes);
        EXPECT_EQ(a.scOutcomeCount, b.scOutcomeCount);
    }
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
    // The sink contract: at any worker count the sink sees exactly the
    // entries a sinkless run collects, in the same order, and the
    // report's own vector stays empty.
    auto opts = smallOptions(3, true);
    const auto baseline = Synthesizer(opts).run();
    ASSERT_FALSE(baseline.interesting.empty());
    for (std::size_t jobs : {1, 4}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        std::vector<SynthesizedTest> received;
        opts.jobs = jobs;
        opts.sink = [&](SynthesizedTest &&entry) {
            received.push_back(std::move(entry));
        };
        const auto report = Synthesizer(opts).run();
        EXPECT_TRUE(report.interesting.empty());
        EXPECT_EQ(report.stats.weak, baseline.stats.weak);
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
            EXPECT_EQ(a.scOutcomeCount, b.scOutcomeCount);
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
