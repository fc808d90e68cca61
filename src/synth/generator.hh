/**
 * @file
 * Automated litmus-test synthesis (paper §6.3, following Lustig et al.,
 * ASPLOS 2017).
 *
 * The synthesizer enumerates all small programs over a fixed instruction
 * alphabet, one per class modulo thread/location symmetry, checks
 * each under the PTX 7.5 and PTX 6.0 models, and classifies the
 * interesting ones:
 *
 *  - weak: the relaxed model admits outcomes sequential consistency
 *    does not (classic litmus tests);
 *  - proxy-sensitive: the proxy-aware model admits outcomes the
 *    proxy-oblivious model forbids (the "non-standard patterns"
 *    the paper reports finding);
 *  - fence-minimal: removing any single fence strictly enlarges the
 *    admitted outcome set (every fence is load-bearing); judged only
 *    up to kMaxFenceMinimalInstructions instructions.
 *
 * The enumeration cost is exponential in the instruction count; the
 * paper reports ~6 instructions as the practical limit, which
 * bench/sec63_synthesis reproduces.
 */

#ifndef MIXEDPROXY_SYNTH_GENERATOR_HH
#define MIXEDPROXY_SYNTH_GENERATOR_HH

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "litmus/outcome.hh"
#include "litmus/test.hh"
#include "model/program.hh"
#include "obs/obs.hh"

namespace mixedproxy::synth {

/**
 * Candidate-execution budget of every model check synthesis and
 * shrinking run. A program whose check exceeds it is skipped as too
 * expensive (SynthStats::skippedTooExpensive), never misclassified.
 */
inline constexpr std::uint64_t kMaxExecutionsPerCheck = 2'000'000;

/**
 * Largest instruction count at which a run classifies fence-minimality
 * (one more PTX 7.5 check per fence of every program); above it the
 * report says "fence-minimal n/a" (SynthStats::fenceMinimalCounted).
 */
inline constexpr std::size_t kMaxFenceMinimalInstructions = 3;

/** What checkBothModels found; only checked75 is set if tooExpensive. */
struct TwoModelVerdict
{
    bool checked75 = false;    ///< the PTX 7.5 check finished in budget
    bool tooExpensive = false; ///< a check exceeded its budget
    bool singleProxy = false;  ///< pruning answered the PTX 6.0 check
    std::set<litmus::Outcome> ptx75Outcomes;
    std::size_t ptx60Outcomes = 0;
    bool proxySensitive = false; ///< the two outcome sets differ
};

/**
 * The PTX 7.5 expansion of @p test, timed as one "check.expand" span as
 * the checker times its own. Synthesis classification and
 * proxySensitivityPredicate expand through it.
 *
 * @throws FatalError if @p test does not expand.
 */
model::Program expandPtx75(const litmus::LitmusTest &test);

/**
 * Check the PTX 7.5 expansion @p prog75 under PTX 7.5, then PTX 6.0,
 * each within kMaxExecutionsPerCheck: the PTX 6.0 check reads its
 * ptx60View(), or single-proxy pruning (docs/static_solver.md
 * "Synthesis pruning") answers it. Synthesis classification and
 * proxySensitivityPredicate share this step.
 */
TwoModelVerdict checkBothModels(const model::Program &prog75);

/** One synthesized-and-classified test. */
struct SynthesizedTest
{
    litmus::LitmusTest test;
    bool weak = false;
    bool proxySensitive = false;
    bool fenceMinimal = false;
    std::size_t ptx75Outcomes = 0;
    std::size_t ptx60Outcomes = 0;
};

/** Options controlling one synthesis run. */
struct SynthOptions
{
    /** Exact number of instructions across all threads. */
    std::size_t instructions = 3;

    /** Maximum number of threads (each in its own CTA). */
    std::size_t maxThreads = 2;

    /** Number of distinct physical locations available (1 or 2). */
    std::size_t maxLocations = 2;

    /**
     * Include the proxy alphabet: constant loads through an alias,
     * generic accesses through an alias, and proxy fences.
     */
    bool withProxies = true;

    /** Include fence.acq_rel.gpu / fence.sc.gpu in the alphabet. */
    bool withFences = true;

    /** Include release/acquire accesses in the alphabet. */
    bool withReleaseAcquire = true;

    /** Include atom.add in the alphabet. */
    bool withAtomics = false;

    /** Include cp.async / cp.async.wait_all in the alphabet. */
    bool withAsync = false;

    /** Include bar.sync in the alphabet (two-thread rendezvous). */
    bool withBarriers = false;

    /** Classify fence-minimality (up to kMaxFenceMinimalInstructions). */
    bool classifyFenceMinimal = true;

    /** Stop after this many unique programs (0 = unlimited). */
    std::size_t maxUniquePrograms = 0;

    /**
     * Worker threads for classification (runtime::parallelFor). The
     * report is identical for any value — serial orderly generation,
     * parallel classification per chunk, folded by index
     * (docs/parallelism.md).
     */
    std::size_t jobs = 1;

    /**
     * Receiver of the interesting tests, called on the calling thread
     * in report order while the run streams. Unset, run() collects
     * them in SynthReport::interesting; set, that vector stays empty
     * and memory stays bounded however many tests the run finds. An
     * exception it throws propagates out of run().
     */
    std::function<void(SynthesizedTest &&)> sink;

    /**
     * Observability session to record into (bound for the duration of
     * run(); workers get per-worker sessions merged back into it).
     * Null uses the calling thread's ambient session. The library's one
     * session option: every other entry point records only into the
     * bound session, and this one stays because perfbench's tracer
     * sets it.
     */
    obs::Session *session = nullptr;
};

/**
 * Aggregate statistics of a synthesis run. The synthesizer fills this
 * struct directly; publish() maps every field onto the stable
 * "synth.*" metric names (docs/observability.md), keeping summary()
 * and the --stats-json report on one source of truth.
 */
struct SynthStats
{
    std::uint64_t programsEnumerated = 0;
    std::uint64_t afterPruning = 0;
    std::uint64_t uniquePrograms = 0;
    std::uint64_t checked = 0;
    std::uint64_t skippedTooExpensive = 0;
    std::uint64_t weak = 0;
    std::uint64_t proxySensitive = 0;
    std::uint64_t fenceMinimal = 0;

    /** Unset, summary() says "fence-minimal n/a" and publish() omits it. */
    bool fenceMinimalCounted = false;

    /**
     * Checks skipped by single-proxy pruning (docs/static_solver.md
     * "Synthesis pruning"): PTX 6.0 classification checks and
     * fence-minimality rechecks, respectively. Published as metrics
     * only; summary() omits them.
     */
    std::uint64_t presolvePrunedPtx60 = 0;
    std::uint64_t presolvePrunedFenceChecks = 0;

    double seconds = 0.0;

    /** Add the counted fields to @p registry under "synth.". */
    void publish(obs::MetricsRegistry &registry) const;
};

/** The result of one synthesis run. */
struct SynthReport
{
    SynthStats stats;

    /**
     * Tests with at least one interesting classification (empty when
     * SynthOptions::sink received them instead).
     */
    std::vector<SynthesizedTest> interesting;

    /** Multi-line human-readable table row. */
    std::string summary() const;
};

/**
 * Writes interesting tests as .litmus files, each with a comment
 * header recording its classification — the "comprehensive litmus
 * test suite" artifact of the ASPLOS 2017 flow the paper follows.
 */
class SuiteWriter
{
  public:
    /** Create @p directory if absent; FatalError if that fails. */
    explicit SuiteWriter(std::string directory);

    /** Write @p entry as <directory>/<test name>.litmus. */
    void write(const SynthesizedTest &entry);

    /** Number of files written so far. */
    std::size_t written() const { return count; }

  private:
    std::string directory;
    std::size_t count = 0;
};

/** The exhaustive litmus-test synthesizer. */
class Synthesizer
{
  public:
    explicit Synthesizer(SynthOptions options = {});

    /** Run the enumeration and classification. */
    SynthReport run() const;

    /**
     * Materialize, in index order, each unique program run() would
     * classify and pass it to @p visit; a skeleton that does not
     * materialize is skipped, as run() skips it. For checks over the
     * whole population rather than the part a report keeps.
     */
    void forEachProgram(
        const std::function<void(const litmus::LitmusTest &)> &visit)
        const;

  private:
    SynthOptions opts;
};

} // namespace mixedproxy::synth

#endif // MIXEDPROXY_SYNTH_GENERATOR_HH
