/**
 * @file
 * The content-addressed verdict cache.
 *
 * Verdicts are memoized under a fingerprint of the *canonical* program
 * (engine/canonical.hh) plus every configuration knob that can change
 * the admitted outcome set — so two tests that differ only by renaming
 * share one entry, and a knob change can never serve a stale verdict.
 * What is stored is the outcome set in the canonical namespace together
 * with the enumeration stats; the engine translates outcomes back into
 * each request's own names and re-evaluates that request's assertions,
 * which is why assertions are not part of the key (docs/service.md).
 *
 * Two tiers: a bounded in-memory LRU, always on, and an optional
 * on-disk store (one JSON file per fingerprint, named by its SHA-256)
 * that survives the process and makes cold-vs-warm CI runs meaningful.
 * Disk entries embed their full fingerprint and a SHA-256 digest of
 * their contents, both verified on load, so a hash collision or a
 * corrupted file degrades to a miss, never to a wrong verdict.
 *
 * Concurrency: lookupOrCompute() coalesces in-flight duplicates — the
 * first requester computes while concurrent requesters for the same
 * fingerprint block and then read the fresh entry. Besides saving the
 * duplicate work, this makes the engine.cache.{hit,miss} counters a
 * function of the request multiset alone, independent of --jobs — the
 * batch determinism suite compares them byte-for-byte across worker
 * counts.
 */

#ifndef MIXEDPROXY_ENGINE_CACHE_HH
#define MIXEDPROXY_ENGINE_CACHE_HH

#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <condition_variable>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "litmus/outcome.hh"
#include "model/checker.hh"

namespace mixedproxy::engine {

/**
 * The enumeration core a verdict comes from. The checker has exactly
 * one, and no flag, request field or model::CheckOptions field selects
 * it; the tag survives only because the perfbench tracer still passes
 * CheckBlock::enumCore to VerdictCache::fingerprint(). This enum, that
 * field and the fingerprint parameter go when that call does.
 */
enum class EnumCore { Incremental };

/**
 * One memoized verdict: the complete admitted outcome set of a
 * canonical program under one configuration, plus the enumeration
 * stats that produced it (reports re-render from these on a hit, so a
 * warm reply is byte-identical to the cold one). Outcomes are in the
 * canonical namespace ("t<i>.r<k>" registers, "m<j>" locations).
 */
struct CachedVerdict
{
    std::set<litmus::Outcome> outcomes;
    bool budgetExceeded = false;
    model::CheckStats stats;
};

/** Lowercase SHA-256 hex digest of @p data (disk filenames). */
std::string sha256Hex(const std::string &data);

/** The two-tier (memory LRU + optional disk) verdict cache. */
class VerdictCache
{
  public:
    struct Config
    {
        /** In-memory LRU capacity, in entries. 0 disables memoization
         *  entirely (every lookup computes). */
        std::size_t capacity = 4096;

        /** On-disk store directory; empty keeps the cache in-memory
         *  only. Created on first store if absent. */
        std::string diskDir;
    };

    VerdictCache();
    explicit VerdictCache(Config config);

    /**
     * The cache fingerprint of one check request: the canonical program
     * key joined with every verdict-affecting knob. Witness collection
     * is not a knob here — witness-bearing requests bypass the cache
     * (engine/engine.cc) because witnesses name concrete events of the
     * original program and are not translatable. The presolve policy
     * *is* a knob (it changes what a verdict even is — a discharged
     * check has no outcome enumeration), even though non-Off requests
     * currently also bypass the cache for exactly that reason: keying
     * on it means a future cached-presolve tier can never collide with
     * today's enumerated entries. @p enumCore is the single-value
     * EnumCore tag and does not change the key.
     */
    static std::string
    fingerprint(const std::string &canonicalKey, model::ProxyMode mode,
                bool staticFastPath, std::uint64_t maxExecutions,
                model::PresolvePolicy presolve =
                    model::PresolvePolicy::Off,
                EnumCore enumCore = EnumCore::Incremental);

    /**
     * Return the verdict for @p key, computing it with @p compute on a
     * miss. Counts engine.cache.{hit,miss,evict,disk_hit,disk_store}
     * into the calling thread's obs session. Concurrent calls with the
     * same key coalesce onto one computation. If @p compute throws, the
     * in-flight marker is released and the exception propagates; a
     * blocked duplicate then computes for itself.
     *
     * @param wasHit When non-null, receives whether the verdict was
     *        served without running @p compute (memory or disk).
     */
    CachedVerdict lookupOrCompute(
        const std::string &key,
        const std::function<CachedVerdict()> &compute,
        bool *wasHit = nullptr);

    /** Entries currently resident in memory. */
    std::size_t size() const;

    /** Drop every in-memory entry (the disk store is untouched). */
    void clear();

    const Config &config() const { return cfg; }

  private:
    /** Look up @p key in memory; on a hit, refresh LRU position and
     *  copy into @p out. Caller holds the lock. */
    bool memoryLookup(const std::string &key, CachedVerdict &out);

    /** Insert @p verdict under @p key, evicting LRU tails past
     *  capacity. Caller holds the lock; returns evictions. */
    std::size_t memoryInsert(const std::string &key,
                             const CachedVerdict &verdict);

    bool diskLoad(const std::string &key, CachedVerdict &out) const;
    void diskStore(const std::string &key,
                   const CachedVerdict &verdict) const;

    std::string diskPath(const std::string &key) const;

    Config cfg;

    mutable std::mutex mutex;

    /** Most-recently-used first. */
    std::list<std::pair<std::string, CachedVerdict>> lru;
    std::unordered_map<
        std::string,
        std::list<std::pair<std::string, CachedVerdict>>::iterator>
        index;

    /** Keys with a computation in flight; guarded by mutex. */
    std::unordered_set<std::string> pending;
    std::condition_variable pendingDone;
};

/**
 * Serialize / parse the "mixedproxy.verdict.v5" disk-entry format.
 * Decoding fails (a cache miss) on a foreign key, another format tag
 * or a digest mismatch. Exposed for the disk-store round-trip tests.
 */
std::string encodeVerdictEntry(const std::string &key,
                               const CachedVerdict &verdict);
bool decodeVerdictEntry(const std::string &text, const std::string &key,
                        CachedVerdict &out);

} // namespace mixedproxy::engine

#endif // MIXEDPROXY_ENGINE_CACHE_HH
