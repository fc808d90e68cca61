/**
 * @file
 * Tests for litmus-test shrinking and the structural mutations.
 */

#include <filesystem>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "litmus/parser.hh"
#include "litmus/registry.hh"
#include "relation/error.hh"
#include "synth/generator.hh"
#include "synth/mutate.hh"
#include "synth/shrink.hh"

namespace {

using namespace mixedproxy;
using namespace mixedproxy::synth;
using litmus::LitmusBuilder;

TEST(Mutate, WithoutInstruction)
{
    auto test = LitmusBuilder("m")
                    .alias("c", "x")
                    .init("x", 3)
                    .thread("t0", 0, 0, {"st.global.u32 [x], 1",
                                         "fence.proxy.constant",
                                         "ld.const.u32 r1, [c]"})
                    .permit("t0.r1 == 1")
                    .build();
    auto reduced = withoutInstruction(test, 0, 1);
    ASSERT_EQ(reduced.threads().size(), 1u);
    EXPECT_EQ(reduced.threads()[0].instructions.size(), 2u);
    // The address map and init survive.
    EXPECT_EQ(reduced.locationOf("c"), "x");
    EXPECT_EQ(reduced.initOf("x"), 3u);
    // Assertions are not copied.
    EXPECT_TRUE(reduced.assertions().empty());
    EXPECT_THROW(withoutInstruction(test, 0, 9), PanicError);
    EXPECT_THROW(withoutInstruction(test, 2, 0), PanicError);
}

TEST(Mutate, EmptiedThreadIsDropped)
{
    auto test = LitmusBuilder("m2")
                    .thread("t0", 0, 0, {"st.global.u32 [x], 1"})
                    .thread("t1", 1, 0, {"ld.global.u32 r1, [x]"})
                    .permit("t1.r1 == 0")
                    .build();
    auto reduced = withoutInstruction(test, 0, 0);
    ASSERT_EQ(reduced.threads().size(), 1u);
    EXPECT_EQ(reduced.threads()[0].name, "t1");
}

TEST(Mutate, WithoutThread)
{
    auto test = LitmusBuilder("m3")
                    .thread("t0", 0, 0, {"st.global.u32 [x], 1"})
                    .thread("t1", 1, 0, {"ld.global.u32 r1, [x]"})
                    .permit("t1.r1 == 0")
                    .build();
    auto reduced = withoutThread(test, 0);
    ASSERT_EQ(reduced.threads().size(), 1u);
    EXPECT_EQ(reduced.threads()[0].name, "t1");
}

TEST(Shrink, MinimizesFig4WithJunk)
{
    // Fig. 4 buried under unrelated instructions: the shrinker should
    // recover the two-instruction core while preserving
    // proxy-sensitivity.
    auto bloated = LitmusBuilder("bloated")
                       .alias("c", "g")
                       .thread("t0", 0, 0,
                               {"ld.global.u32 r9, [z]",
                                "st.global.u32 [g], 42",
                                "st.global.u32 [z], 5",
                                "ld.const.u32 r1, [c]",
                                "ld.global.u32 r2, [z]"})
                       .thread("t1", 1, 0, {"ld.global.u32 r1, [z]"})
                       .permit("t0.r1 == 0")
                       .build();
    ShrinkStats stats;
    auto minimal =
        shrink(bloated, proxySensitivityPredicate(), &stats);
    EXPECT_EQ(minimal.instructionCount(), 2u) << minimal.toString();
    EXPECT_EQ(minimal.threads().size(), 1u);
    EXPECT_GT(stats.removalsAccepted, 0u);
    EXPECT_GE(stats.candidatesTried, stats.removalsAccepted);
}

TEST(Shrink, PredicateMustHoldInitially)
{
    auto test = LitmusBuilder("nope")
                    .thread("t0", 0, 0, {"ld.global.u32 r1, [x]"})
                    .permit("t0.r1 == 0")
                    .build();
    EXPECT_THROW(
        shrink(test, [](const litmus::LitmusTest &) { return false; }),
        FatalError);
}

TEST(Shrink, AdmitsPredicateKeepsReferencedRegisters)
{
    // Shrinking under "t1.r2 can read 0 after the handshake" must keep
    // the instructions the condition references.
    auto test = LitmusBuilder("mp_shrink")
                    .alias("c", "x")
                    .thread("t0", 0, 0, {"ld.global.u32 r9, [y]",
                                         "st.global.u32 [x], 42",
                                         "st.release.gpu.u32 [f], 1"})
                    .thread("t1", 1, 0, {"ld.acquire.gpu.u32 r1, [f]",
                                         "ld.const.u32 r2, [c]",
                                         "ld.global.u32 r3, [y]"})
                    .permit("t1.r1 == 0")
                    .build();
    auto minimal = shrink(
        test, admitsPredicate("t1.r1 == 1 && t1.r2 == 0"));
    // The junk loads of y disappear, and so does the payload store
    // (the condition doesn't force r2 to be fresh); what remains is
    // the handshake plus the constant read the condition names.
    EXPECT_EQ(minimal.instructionCount(), 3u) << minimal.toString();
    for (const auto &thread : minimal.threads()) {
        for (const auto &instr : thread.instructions) {
            EXPECT_NE(test.locationOf(instr.address), "y")
                << instr.toString();
        }
    }
}

TEST(Shrink, FixpointIsStable)
{
    const auto &test = litmus::testByName("fig4_const_alias_nofence");
    auto predicate = proxySensitivityPredicate();
    auto once = shrink(test, predicate);
    auto twice = shrink(once, predicate);
    EXPECT_EQ(once.instructionCount(), twice.instructionCount());
}

TEST(Shrink, ProxySensitivityPredicateAgreesWithSynthesis)
{
    // The shrinker judges proxy-sensitivity as synthesis classifies
    // it: over every n=3 program, the predicate holds exactly on the
    // programs the run reports as proxy-sensitive.
    SynthOptions opts;
    opts.instructions = 3;
    std::set<std::string> sensitive;
    opts.sink = [&](SynthesizedTest &&entry) {
        if (entry.proxySensitive)
            sensitive.insert(entry.test.name());
    };
    const Synthesizer synthesizer(opts);
    const auto report = synthesizer.run();
    ASSERT_EQ(sensitive.size(), report.stats.proxySensitive);
    ASSERT_GT(sensitive.size(), 0u);

    const auto predicate = proxySensitivityPredicate();
    std::size_t programs = 0;
    synthesizer.forEachProgram([&](const litmus::LitmusTest &test) {
        programs++;
        EXPECT_EQ(predicate(test), sensitive.count(test.name()) != 0)
            << test.toString();
    });
    EXPECT_EQ(programs, report.stats.checked);
}

TEST(SuiteExport, WritesClassifiedLitmusFiles)
{
    SynthOptions opts;
    opts.instructions = 2;
    opts.maxThreads = 2;
    opts.withProxies = true;
    auto report = Synthesizer(opts).run();
    ASSERT_GT(report.interesting.size(), 0u);

    const std::string dir = "synth_suite_tmp";
    SuiteWriter suite(dir);
    for (const auto &entry : report.interesting)
        suite.write(entry);
    const std::size_t written = suite.written();
    EXPECT_EQ(written, report.interesting.size());

    // Every emitted file parses back and matches its header.
    std::size_t parsed = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir)) {
        auto test = litmus::parseTestFile(entry.path().string());
        EXPECT_GT(test.instructionCount(), 0u);
        parsed++;
    }
    EXPECT_EQ(parsed, written);
    std::filesystem::remove_all(dir);
}

} // namespace
