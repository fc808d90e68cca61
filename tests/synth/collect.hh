/**
 * @file
 * Test-local helper: run a synthesis with a sink that keeps the
 * interesting tests, the way nvlitmus --synth-out receives them.
 */

#ifndef MIXEDPROXY_TESTS_SYNTH_COLLECT_HH
#define MIXEDPROXY_TESTS_SYNTH_COLLECT_HH

#include <utility>
#include <vector>

#include "synth/generator.hh"

namespace mixedproxy::synth_tests {

/** A synthesis report plus the tests its sink received, in order. */
struct CollectedRun
{
    synth::SynthReport report;
    std::vector<synth::SynthesizedTest> interesting;
};

/** Run @p opts (any sink it has is replaced) and keep every test. */
inline CollectedRun
runCollecting(synth::SynthOptions opts)
{
    CollectedRun run;
    opts.sink = [&](synth::SynthesizedTest &&entry) {
        run.interesting.push_back(std::move(entry));
    };
    run.report = synth::Synthesizer(opts).run();
    return run;
}

} // namespace mixedproxy::synth_tests

#endif // MIXEDPROXY_TESTS_SYNTH_COLLECT_HH
