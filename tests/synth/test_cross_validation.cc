/**
 * @file
 * Randomized cross-validation: the synthesizer generates programs the
 * registry authors never thought of; every one of them must still
 * satisfy the soundness properties that tie the operational machine to
 * the axiomatic model. This is the closest analogue of the paper's
 * "automatically generated litmus tests ... provided evidence that the
 * new proxy memory model behaved as expected" (§6.3).
 */

#include <gtest/gtest.h>

#include "microarch/simulator.hh"
#include "model/checker.hh"
#include "model/sc.hh"
#include "synth/generator.hh"

namespace {

using namespace mixedproxy;
using namespace mixedproxy::synth;

std::vector<litmus::LitmusTest>
synthesizedCorpus()
{
    SynthOptions opts;
    opts.instructions = 3;
    opts.maxThreads = 2;
    opts.maxLocations = 2;
    opts.withProxies = true;
    opts.classifyFenceMinimal = false;
    auto report = Synthesizer(opts).run();
    std::vector<litmus::LitmusTest> out;
    for (const auto &entry : report.interesting) {
        if (!entry.proxySensitive)
            continue;
        out.push_back(entry.test);
        if (out.size() >= 120)
            break;
    }
    return out;
}

TEST(SynthCrossValidation, OperationalSoundnessOnSynthesizedTests)
{
    model::CheckOptions mopts;
    mopts.collectWitnesses = false;
    model::Checker checker(mopts);

    microarch::SimOptions sopts;
    sopts.iterations = 60;
    sopts.seed = 424242;
    microarch::Simulator simulator(sopts);

    auto corpus = synthesizedCorpus();
    ASSERT_GE(corpus.size(), 50u);
    for (const auto &test : corpus) {
        auto allowed = checker.check(test).outcomes;
        auto sim = simulator.run(test);
        for (const auto &[outcome, count] : sim.histogram) {
            ASSERT_TRUE(allowed.count(outcome))
                << test.toString()
                << "machine-only outcome: " << outcome.toString();
        }
    }
}

TEST(SynthCrossValidation, ScLegalityOnSynthesizedTests)
{
    model::CheckOptions mopts;
    mopts.collectWitnesses = false;
    model::Checker checker(mopts);

    auto corpus = synthesizedCorpus();
    for (const auto &test : corpus) {
        const model::Program program(test, model::ProxyMode::Ptx75);
        auto allowed = checker.check(program).outcomes;
        for (const auto &outcome : model::scOutcomes(program)) {
            ASSERT_TRUE(allowed.count(outcome))
                << test.toString()
                << "SC outcome not allowed: " << outcome.toString();
        }
    }
}

TEST(SynthCrossValidation, RelaxationOnSynthesizedTests)
{
    model::CheckOptions o75;
    o75.collectWitnesses = false;
    model::CheckOptions o60 = o75;
    o60.mode = model::ProxyMode::Ptx60;
    model::Checker c75(o75);
    model::Checker c60(o60);

    auto corpus = synthesizedCorpus();
    for (const auto &test : corpus) {
        auto a75 = c75.check(test).outcomes;
        auto a60 = c60.check(test).outcomes;
        for (const auto &outcome : a60) {
            ASSERT_TRUE(a75.count(outcome))
                << test.toString() << "PTX 6.0 outcome missing: "
                << outcome.toString();
        }
    }
}

} // namespace
