/**
 * @file
 * Litmus-test shrinking: given a test exhibiting some property, find a
 * smaller test that still exhibits it (delta debugging over the
 * instruction list). Memory-model practice distills machine-found
 * behaviors into minimal human-readable litmus tests; this is that
 * distillation step for the synthesizer's output and for NVLitmus
 * users.
 */

#ifndef MIXEDPROXY_SYNTH_SHRINK_HH
#define MIXEDPROXY_SYNTH_SHRINK_HH

#include <cstdint>
#include <functional>

#include "litmus/test.hh"
#include "model/checker.hh"
#include "obs/obs.hh"

namespace mixedproxy::synth {

/** The property a shrunk test must preserve. */
using TestPredicate = std::function<bool(const litmus::LitmusTest &)>;

/** Counters describing one shrink run. */
struct ShrinkStats
{
    std::uint64_t candidatesTried = 0;
    std::uint64_t removalsAccepted = 0;

    /** Candidates where the property did not survive the removal. */
    std::uint64_t removalsRejected() const
    {
        return candidatesTried - removalsAccepted;
    }

    /** Add every field to @p registry under the "shrink." prefix. */
    void publish(obs::MetricsRegistry &registry) const;
};

/**
 * Greedily remove threads and instructions from @p test while
 * @p predicate stays true, to a local fixpoint.
 *
 * The predicate is evaluated on structurally valid candidates only;
 * candidates that fail validation (e.g. a register orphaned by a
 * removal) are treated as not preserving the property. The original
 * test's assertions are not part of the result — the predicate is the
 * specification.
 *
 * @throws FatalError if @p predicate does not hold on @p test itself.
 */
litmus::LitmusTest shrink(const litmus::LitmusTest &test,
                          const TestPredicate &predicate,
                          ShrinkStats *stats = nullptr);

/**
 * Predicate: the proxy-aware and proxy-oblivious models admit
 * different outcome sets (the test is proxy-sensitive), judged by
 * checkBothModels (synth/generator.hh) as synthesis judges it,
 * single-proxy pruning included. A candidate whose check exceeds
 * kMaxExecutionsPerCheck does not preserve it.
 */
TestPredicate proxySensitivityPredicate();

/**
 * Predicate: the PTX 7.5 model admits an outcome satisfying
 * @p condition. A candidate whose check exceeds kMaxExecutionsPerCheck
 * does not preserve it.
 */
TestPredicate admitsPredicate(const std::string &condition);

} // namespace mixedproxy::synth

#endif // MIXEDPROXY_SYNTH_SHRINK_HH
