/**
 * @file
 * engine::Engine — the long-lived checking service behind every front
 * end.
 *
 * One Engine owns one verdict cache (engine/cache.hh) and serves any
 * number of Requests, concurrently, from any thread: the CLI batch
 * runner, the --serve daemon, benches, and tests check programs through
 * submit(). The exceptions sit below the engine: the synthesizer and
 * synth::shrink construct model::Checker directly for their many
 * internal checks (a synthesis job itself is one submit()), so those
 * checks bypass the verdict cache. A submit is pure with respect to the
 * engine — all observability flows into the calling thread's bound
 * obs::Session, and the only shared mutable state is the cache, which
 * is internally synchronized and coalesces duplicate in-flight work.
 *
 * Cache discipline: a check whose canonical form, model, fast-path
 * flag, and budget match a previous check is answered from the stored
 * canonical outcome set — translated back into the request's own
 * names, with the request's own assertions re-evaluated — through the
 * same reconstruction code path a cold check uses, so a warm report is
 * byte-identical to a cold one. Witness-collecting checks bypass the
 * cache (witnesses name concrete events and are not translatable), as
 * do presolve-enabled checks (a statically discharged verdict has no
 * outcome enumeration to store); every bypassing check runs through
 * analysis::presolve::check, which puts the static pre-solver in front
 * of the checker when the request's policy asks for it. Comparison
 * checks are two cache lookups.
 */

#ifndef MIXEDPROXY_ENGINE_ENGINE_HH
#define MIXEDPROXY_ENGINE_ENGINE_HH

#include <string>

#include "engine/cache.hh"
#include "engine/request.hh"

namespace mixedproxy::engine {

/** Process-lifetime knobs of one Engine. */
struct EngineConfig
{
    /** Memoize verdicts at all. --no-cache sets this false. */
    bool cacheEnabled = true;

    /** In-memory LRU capacity, in entries. */
    std::size_t cacheCapacity = 4096;

    /** On-disk verdict store directory ("" = memory only). */
    std::string cacheDir;
};

/** The checking service. Thread-safe; create one per cache domain. */
class Engine
{
  public:
    explicit Engine(EngineConfig config = {});

    /**
     * Execute one request to completion and return its verdict.
     * Records an "engine.request" span and the engine.cache.* counters
     * into the calling thread's bound observability session.
     *
     * @throws FatalError on invalid test input (propagated from the
     *         subsystems; the caller owns per-input error handling).
     */
    Verdict submit(const Request &request);

    VerdictCache &cache() { return verdictCache; }
    const EngineConfig &config() const { return cfg; }

  private:
    /**
     * The cached axiomatic check: canonicalize, consult the cache,
     * reconstruct a CheckResult in the test's own namespace, and
     * re-evaluate the test's assertions. Checks that bypass the cache
     * run analysis::presolve::check under the block's policy.
     */
    model::CheckResult checkCached(const litmus::LitmusTest &test,
                                   const CheckBlock &block,
                                   model::ProxyMode mode,
                                   bool collectWitnesses, bool *wasHit);

    EngineConfig cfg;
    VerdictCache verdictCache;
};

/**
 * Render a verdict as the classic NVLitmus CLI report (header, test
 * listing, check summary, then witnesses / dot / model comparison /
 * lint findings / simulation, as requested). Pure; both the CLI and
 * the daemon call this, which is what keeps their outputs identical.
 */
std::string renderReport(const Request &request, const Verdict &verdict);

} // namespace mixedproxy::engine

#endif // MIXEDPROXY_ENGINE_ENGINE_HH
