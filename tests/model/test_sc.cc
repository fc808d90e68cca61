/**
 * @file
 * Tests of the SC executor (model/sc.hh): unit tests of the interleaving
 * walk, the oracle property that SC outcomes are always admitted by both
 * PTX model variants, and a golden of the walk's outcome sets over a
 * fixed population.
 *
 * The population is every built-in test and every program
 * Synthesizer::forEachProgram yields at 1, 2 and 3 instructions for the
 * default alphabet and for each of the atomic, async-copy and barrier
 * alphabets, which exercise RMW, cp.async and bar.sync groups. Per
 * program, in visit order, the golden records the number of SC outcomes
 * and a digest of their sorted toString() renderings. It was generated from
 * the standalone LitmusTest-level SC interpreter this executor
 * replaced, so it pins that every weak/not-weak classification of the
 * synthesizer is unchanged.
 *
 * On a mismatch the test writes the transcript it produced to
 * sc_golden.actual in its working directory. If the change in output is
 * intentional, regenerate with:
 *
 *   build/tests/test_model --gtest_filter='ScPopulation.*'
 *   cp build/tests/sc_golden.actual tests/model/goldens/sc_outcomes.golden
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "litmus/registry.hh"
#include "litmus/test.hh"
#include "model/checker.hh"
#include "model/sc.hh"
#include "synth/generator.hh"

namespace {

using namespace mixedproxy;
using litmus::LitmusBuilder;

/** SC outcomes of @p test, from its PTX 7.5 expansion. */
std::set<litmus::Outcome>
scOutcomes(const litmus::LitmusTest &test)
{
    return model::scOutcomes(model::Program(test, model::ProxyMode::Ptx75));
}

TEST(ScReference, SingleThreadIsDeterministic)
{
    auto test = LitmusBuilder("seq")
                    .thread("t0", 0, 0, {"st.global.u32 [x], 1",
                                         "ld.global.u32 r1, [x]",
                                         "st.global.u32 [x], 2"})
                    .permit("t0.r1 == 1")
                    .build();
    auto outcomes = scOutcomes(test);
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes.begin()->reg("t0", "r1"), 1u);
    EXPECT_EQ(outcomes.begin()->mem("x"), 2u);
}

TEST(ScReference, MessagePassingInterleavings)
{
    auto test = LitmusBuilder("mp")
                    .thread("t0", 0, 0, {"st.global.u32 [x], 42",
                                         "st.global.u32 [y], 1"})
                    .thread("t1", 1, 0, {"ld.global.u32 r1, [y]",
                                         "ld.global.u32 r2, [x]"})
                    .permit("t1.r1 == 0")
                    .build();
    auto outcomes = scOutcomes(test);
    // SC admits exactly three register combinations: 0/0, 0/42, 1/42.
    EXPECT_EQ(outcomes.size(), 3u);
    for (const auto &outcome : outcomes) {
        EXPECT_FALSE(outcome.reg("t1", "r1") == 1 &&
                     outcome.reg("t1", "r2") == 0)
            << outcome.toString();
    }
}

TEST(ScReference, StoreBufferingForbiddenUnderSc)
{
    auto test = LitmusBuilder("sb")
                    .thread("t0", 0, 0, {"st.global.u32 [x], 1",
                                         "ld.global.u32 r1, [y]"})
                    .thread("t1", 1, 0, {"st.global.u32 [y], 1",
                                         "ld.global.u32 r2, [x]"})
                    .permit("t0.r1 == 1")
                    .build();
    for (const auto &outcome : scOutcomes(test)) {
        EXPECT_FALSE(outcome.reg("t0", "r1") == 0 &&
                     outcome.reg("t1", "r2") == 0)
            << outcome.toString();
    }
}

TEST(ScReference, AliasesResolveToOneCell)
{
    auto test = LitmusBuilder("alias")
                    .alias("c", "x")
                    .thread("t0", 0, 0, {"st.global.u32 [x], 42",
                                         "ld.const.u32 r1, [c]"})
                    .permit("t0.r1 == 42")
                    .build();
    auto outcomes = scOutcomes(test);
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes.begin()->reg("t0", "r1"), 42u);
}

TEST(ScReference, AtomicsAndCas)
{
    auto test = LitmusBuilder("atom")
                    .thread("t0", 0, 0, {"atom.cas.u32 r1, [x], 0, 1"})
                    .thread("t1", 1, 0, {"atom.cas.u32 r2, [x], 0, 2"})
                    .permit("t0.r1 == 0")
                    .build();
    auto outcomes = scOutcomes(test);
    EXPECT_EQ(outcomes.size(), 2u); // one winner each way
    for (const auto &outcome : outcomes) {
        EXPECT_FALSE(outcome.reg("t0", "r1") == 0 &&
                     outcome.reg("t1", "r2") == 0);
    }
}

TEST(ScReference, InitValuesRespected)
{
    auto test = LitmusBuilder("init")
                    .init("x", 5)
                    .thread("t0", 0, 0, {"ld.global.u32 r1, [x]"})
                    .permit("t0.r1 == 5")
                    .build();
    auto outcomes = scOutcomes(test);
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes.begin()->reg("t0", "r1"), 5u);
}

// SC is a legal implementation of PTX: every SC outcome must be allowed
// by both model variants, on the entire corpus.
class ScIsLegal : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ScIsLegal, ScOutcomesAllowedByBothModels)
{
    const auto &test = litmus::testByName(GetParam());
    auto sc = scOutcomes(test);
    for (auto mode : {model::ProxyMode::Ptx75, model::ProxyMode::Ptx60}) {
        model::CheckOptions opts;
        opts.mode = mode;
        opts.collectWitnesses = false;
        auto allowed = model::Checker(opts).check(test).outcomes;
        for (const auto &outcome : sc) {
            EXPECT_TRUE(allowed.count(outcome))
                << test.name() << " [" << model::toString(mode)
                << "]: SC outcome not allowed: " << outcome.toString();
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Registry, ScIsLegal, ::testing::ValuesIn(litmus::testNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

// ---------------------------------------------------------------------
// Population golden.
// ---------------------------------------------------------------------

/** 64-bit FNV-1a: portable, so the golden never drifts by platform. */
std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** One named part of the population and how to visit its programs. */
struct Population
{
    std::string name;
    std::function<void(
        const std::function<void(const litmus::LitmusTest &)> &)>
        forEach;
};

std::vector<Population>
populations()
{
    std::vector<Population> out;
    out.push_back({"builtins", [](const auto &visit) {
                       for (const auto &test : litmus::allTests())
                           visit(test);
                   }});
    struct Alphabet
    {
        const char *name;
        bool synth::SynthOptions::*flag;
    };
    const Alphabet alphabets[] = {
        {"default", nullptr},
        {"atomics", &synth::SynthOptions::withAtomics},
        {"async", &synth::SynthOptions::withAsync},
        {"barriers", &synth::SynthOptions::withBarriers},
    };
    for (const Alphabet &alphabet : alphabets) {
        for (std::size_t n = 1; n <= 3; n++) {
            synth::SynthOptions opts;
            opts.instructions = n;
            if (alphabet.flag)
                opts.*alphabet.flag = true;
            out.push_back({std::string(alphabet.name) + " n=" +
                               std::to_string(n),
                           [opts](const auto &visit) {
                               synth::Synthesizer(opts).forEachProgram(
                                   visit);
                           }});
        }
    }
    return out;
}

/**
 * "<outcome count> <digest>" for one program: the digest is FNV-1a over
 * the sorted toString() renderings, folded to 32 bits to keep the
 * golden small.
 */
std::string
digestLine(const litmus::LitmusTest &test)
{
    std::vector<std::string> rendered;
    for (const auto &outcome : scOutcomes(test))
        rendered.push_back(outcome.toString());
    std::sort(rendered.begin(), rendered.end());
    std::string joined;
    for (const auto &text : rendered)
        joined += text + "\n";
    const std::uint64_t h = fnv1a(joined);
    char digest[9];
    std::snprintf(digest, sizeof digest, "%08llx",
                  static_cast<unsigned long long>((h ^ (h >> 32)) &
                                                  0xffffffffull));
    return std::to_string(rendered.size()) + " " + digest;
}

TEST(ScPopulation, OutcomeDigestsMatchGolden)
{
    // One line per program in visit order, under a header per
    // population; `names` says which program each line belongs to.
    std::vector<std::string> lines, names;
    for (const Population &population : populations()) {
        const std::size_t header = lines.size();
        lines.emplace_back();
        names.push_back(population.name);
        population.forEach([&](const litmus::LitmusTest &test) {
            lines.push_back(digestLine(test));
            names.push_back(population.name + " " + test.name());
        });
        lines[header] = "# " + population.name + ": " +
                        std::to_string(lines.size() - header - 1) +
                        " programs";
    }
    std::string actual;
    for (const auto &line : lines)
        actual += line + "\n";

    std::ifstream golden(std::string(MIXEDPROXY_MODEL_GOLDEN_DIR) +
                         "/sc_outcomes.golden");
    std::vector<std::string> expected;
    for (std::string line; std::getline(golden, line);)
        expected.push_back(line);
    if (expected != lines) {
        std::size_t i = 0;
        while (i < lines.size() && i < expected.size() &&
               lines[i] == expected[i])
            i++;
        std::ofstream("sc_golden.actual") << actual;
        FAIL() << "SC outcome digests differ from "
                  "tests/model/goldens/sc_outcomes.golden, first at line "
               << i + 1 << " ("
               << (i < names.size() ? names[i] : "end of transcript")
               << "); the produced transcript is in sc_golden.actual "
                  "(see the file comment to regenerate)";
    }
}

TEST(ScPopulation, ScOutcomesAreAdmittedByPtx75)
{
    model::CheckOptions opts;
    opts.collectWitnesses = false;
    const model::Checker checker(opts);
    std::size_t checked = 0;
    for (const Population &population : populations()) {
        population.forEach([&](const litmus::LitmusTest &test) {
            const model::Program program(test, model::ProxyMode::Ptx75);
            const auto allowed = checker.check(program).outcomes;
            for (const auto &outcome : model::scOutcomes(program)) {
                EXPECT_TRUE(allowed.count(outcome))
                    << population.name << " " << test.name()
                    << ": SC outcome not allowed by PTX 7.5: "
                    << outcome.toString();
            }
            checked++;
        });
    }
    EXPECT_GT(checked, 96u);
}

} // namespace
