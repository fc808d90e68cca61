/**
 * @file
 * Static expansion of a litmus test into memory-model events.
 *
 * Program computes everything about a candidate-execution universe that
 * does not depend on the reads-from / coherence choices: the event list,
 * program order, syntactic dependencies, the morally strong relation
 * (§6.2.2, including the same-proxy requirement), the per-location
 * maximal cliques of moral strength used by the SC-per-Location axiom,
 * and the per-read candidate write sets.
 */

#ifndef MIXEDPROXY_MODEL_PROGRAM_HH
#define MIXEDPROXY_MODEL_PROGRAM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "litmus/test.hh"
#include "model/event.hh"
#include "relation/relation.hh"

namespace mixedproxy::model {

/**
 * Which model variant to apply (DESIGN.md §3).
 *
 * Ptx60 erases proxies: every access behaves as a generic access to the
 * canonical location, reproducing the pre-proxy PTX 6.0 model. Ptx75 is
 * the proxy-aware model of the paper.
 */
enum class ProxyMode { Ptx60, Ptx75 };

std::string toString(ProxyMode mode);

/** A release pattern: its first event and its pattern write (§8.9.3). */
struct ReleasePattern
{
    EventId first; ///< the release write itself, or the release fence
    EventId write; ///< the strong write that publishes
};

/** An acquire pattern: its pattern read and its last event. */
struct AcquirePattern
{
    EventId read; ///< the strong read that observes
    EventId last; ///< the acquire read itself, or the acquire fence
};

/**
 * Static expansion of one litmus test under one model variant.
 *
 * Events are always built with their PTX 7.5 addresses and proxies; the
 * PTX 6.0 erasure is one post-pass over those two fields, shared by a
 * direct Ptx60 expansion and by ptx60View().
 */
class Program
{
  public:
    Program(const litmus::LitmusTest &test, ProxyMode mode);

    /**
     * The PTX 6.0 view of this expansion, equal field by field to
     * Program(test(), ProxyMode::Ptx60). Everything the mode does not
     * change (events other than their address and proxy, po, dep,
     * patterns, barrier sync, read sources, overlap pairs, mustCause,
     * depClosure) is copied; only the erasure is applied and moral
     * strength and its cliques are rebuilt. Checking a test under both
     * models therefore costs one expansion.
     */
    Program ptx60View() const;

    const litmus::LitmusTest &test() const { return *_test; }
    ProxyMode mode() const { return _mode; }

    /** All events; init writes first, then threads in order. */
    const std::vector<Event> &events() const { return _events; }

    std::size_t size() const { return _events.size(); }

    const Event &event(EventId id) const { return _events[id]; }

    /** Program order (irreflexive, transitive, per-thread total). */
    const relation::Relation &po() const { return _po; }

    /**
     * Syntactic dependency order: register def-use edges plus the
     * internal read-to-write dependency of value-dependent RMWs
     * (add/cas). Feeds the No-Thin-Air axiom and value evaluation.
     */
    const relation::Relation &dep() const { return _dep; }

    /** Morally strong relation (§6.2.2), symmetric. */
    const relation::Relation &morallyStrong() const { return _ms; }

    /**
     * Synchronization edges contributed by CTA execution barriers: the
     * i-th bar.sync of each thread of a CTA pairs with the i-th
     * bar.sync of every other thread of that CTA, in both directions.
     * Feeds base causality alongside synchronizes-with.
     */
    const relation::Relation &barrierSync() const { return _barrierSync; }

    /**
     * Maximal cliques of moral strength among same-location memory
     * events; the SC-per-Location axiom checks acyclicity within each.
     */
    const std::vector<relation::EventSet> &msCliques() const
    {
        return cliques;
    }

    /** Candidate rf sources for each read (init + non-future writes). */
    const std::vector<EventId> &readSources(EventId read) const;

    /** All read events, in id order. */
    const std::vector<EventId> &reads() const { return _reads; }

    /** Live-independent write events per location (excluding init). */
    const std::vector<EventId> &writesAt(LocationId loc) const;

    /** The init write event of a location. */
    EventId initWrite(LocationId loc) const;

    /** All fence.sc events. */
    const std::vector<EventId> &scFences() const { return _scFences; }

    /** All proxy-fence events. */
    const std::vector<EventId> &proxyFences() const
    {
        return _proxyFences;
    }

    /** Release patterns present in the program. */
    const std::vector<ReleasePattern> &releasePatterns() const
    {
        return _releasePatterns;
    }

    /** Acquire patterns present in the program. */
    const std::vector<AcquirePattern> &acquirePatterns() const
    {
        return _acquirePatterns;
    }

    /**
     * Static mixed-proxy summary: true when some non-init memory event
     * travels a non-generic proxy, or some location is accessed through
     * more than one virtual address (generic-proxy aliasing).
     *
     * When false, every overlapping pair of non-init accesses is a
     * same-address generic pair, so §6.2.4's clause (1) orders every
     * base-causality-related pair and the per-candidate proxy-rule
     * evaluation (clause 2/3 and fence bridging) can be skipped. The
     * checker's single-proxy fast path and the `analysis::analyze`
     * linter both consult this proof.
     */
    bool usesMixedProxies() const { return _mixedProxies; }

    /**
     * Overlapping non-init memory event pairs (both directions,
     * irreflexive), rf-independent. The checker's single-proxy fast
     * path intersects base causality with this to get ppbc in one
     * bit-matrix operation instead of a per-pair clause scan.
     */
    const relation::Relation &overlapPairs() const
    {
        return _overlapPairs;
    }

    /**
     * Base layer of the derived-relation stack: the rf-independent core
     * of base causality, ^(po | barrierSync), computed once per
     * expansion. The checker's layered computeDerived() copies this and
     * folds the rf-dependent synchronizes-with edges in as incremental
     * closure inserts instead of re-closing from scratch.
     */
    const relation::Relation &mustCause() const { return _mustCause; }

    /**
     * Transitive closure of dep(), the rf-independent part of the
     * No-Thin-Air check. The incremental enumeration core seeds its
     * per-prefix ^(dep | rf) closure from this and maintains it with
     * insertClosure/insertWouldCycle as rf edges are chosen.
     */
    const relation::Relation &depClosure() const { return _depClosure; }

    /** True when some read event is the read half of an atomic RMW. */
    bool hasAtomicReads() const { return _hasAtomicReads; }

    /** Number of physical locations. */
    std::size_t locationCount() const { return locationNames.size(); }

    /** Name of a location (its canonical virtual address). */
    const std::string &locationName(LocationId loc) const;

    /** Initial value of a location (the test's init of its name). */
    std::uint64_t initValue(LocationId loc) const
    {
        return initValues[static_cast<std::size_t>(loc)];
    }

    /** The read event that defines register @p reg in @p thread. */
    EventId regDef(int thread, const std::string &reg) const;

    /**
     * The read event defining the register of @p event's `value`
     * operand, or Event::kNoPartner when that operand is not a
     * register. Resolved once per expansion, so value evaluation does
     * no register-name lookup.
     */
    EventId valueDef(EventId event) const
    {
        return operandDefs[event].value;
    }

    /** Likewise for the `expected` operand of a cas. */
    EventId expectedDef(EventId event) const
    {
        return operandDefs[event].expected;
    }

    /** Does @p event's scope include thread index @p thread? */
    bool scopeIncludes(const Event &event, int thread) const;

    /** Do two events overlap (same location and access size)? */
    bool overlaps(const Event &a, const Event &b) const;

  private:
    void buildEvents();
    void eraseProxies();
    void buildPoAndDep();
    void buildPatterns();
    void buildBarrierSync();
    void buildMorallyStrong();
    void buildCliques();
    void buildCliquesBitset();
    void buildReadSources();
    void buildBaseLayers();

    bool sameProxy(const Event &a, const Event &b) const;
    bool morallyStrongPair(const Event &a, const Event &b) const;

    const litmus::LitmusTest *_test;
    ProxyMode _mode;

    std::vector<Event> _events;
    std::vector<std::string> locationNames;
    std::vector<std::uint64_t> initValues; ///< by location

    bool _mixedProxies = false;

    relation::Relation _overlapPairs{0};
    relation::Relation _po{0};
    relation::Relation _dep{0};
    relation::Relation _ms{0};
    relation::Relation _barrierSync{0};
    relation::Relation _mustCause{0};
    relation::Relation _depClosure{0};
    bool _hasAtomicReads = false;
    std::vector<relation::EventSet> cliques;

    std::vector<EventId> _reads;
    /** Candidate sources by event id; empty for non-reads. */
    std::vector<std::vector<EventId>> _readSources;
    std::vector<std::vector<EventId>> locationWrites;
    std::vector<EventId> initWrites;
    std::vector<EventId> _scFences;
    std::vector<EventId> _proxyFences;
    std::vector<ReleasePattern> _releasePatterns;
    std::vector<AcquirePattern> _acquirePatterns;

    /** Register-operand definitions, by event id. */
    struct OperandDefs
    {
        EventId value = Event::kNoPartner;
        EventId expected = Event::kNoPartner;
    };
    std::vector<OperandDefs> operandDefs;

    /** Per-thread cta/gpu, indexed by thread id. */
    std::vector<int> threadCta;
    std::vector<int> threadGpu;
};

} // namespace mixedproxy::model

#endif // MIXEDPROXY_MODEL_PROGRAM_HH
