/**
 * @file
 * Canonical forms of litmus tests, modulo renaming.
 *
 * Two litmus tests that differ only in thread order, thread names,
 * virtual-address names, or register names admit isomorphic execution
 * sets: those identities are arbitrary labels the model never branches
 * on. canonicalize() computes a serialization that is invariant under
 * exactly those relabelings — the content address the verdict cache
 * (engine/cache.hh) memoizes under — together with the rename maps
 * needed to translate outcomes between the request's namespace and the
 * canonical one.
 *
 * This extends the synthesizer's skeleton-level symmetry reduction
 * (serial orderly generation, src/synth/skeletons.hh) to arbitrary
 * parsed tests: where the generator picks class representatives over
 * its own alphabet, engine::canonicalize() works on any LitmusTest,
 * covering register renaming and alias structure as well.
 *
 * Soundness contract: equal keys imply isomorphic programs (the key
 * embeds every semantic field of every instruction, the placement
 * structure, the alias structure, and the initial values). Canonicity
 * is best-effort in two bounded corners — more than
 * kMaxLocationPermutations locations, or a thread-symmetry tie group
 * larger than kMaxTieOrderings — where a deterministic but not fully
 * rename-invariant order is used; a missed cache hit is the only
 * consequence, never a wrong one.
 *
 * Assertions are deliberately NOT part of the canonical form: the cache
 * stores the admitted outcome set, and each request re-evaluates its
 * own assertions against it (docs/service.md).
 */

#ifndef MIXEDPROXY_ENGINE_CANONICAL_HH
#define MIXEDPROXY_ENGINE_CANONICAL_HH

#include <map>
#include <string>

#include "litmus/outcome.hh"
#include "litmus/test.hh"

namespace mixedproxy::engine {

/**
 * The canonical serialization of a test plus the rename maps linking
 * the canonical namespace (threads "t0".."tN", registers "r0".."rK"
 * per thread, locations "m0".."mM") to the test's own names.
 */
struct CanonicalForm
{
    /** The renaming-invariant serialization (the cache-key core). */
    std::string key;

    /** "origThread.origReg" -> "t<i>.r<k>". */
    std::map<std::string, std::string> regToCanonical;

    /** "t<i>.r<k>" -> "origThread.origReg". */
    std::map<std::string, std::string> regFromCanonical;

    /** Original location name -> "m<j>". */
    std::map<std::string, std::string> locToCanonical;

    /** "m<j>" -> original location name. */
    std::map<std::string, std::string> locFromCanonical;

    /**
     * Translate an outcome of this test into the canonical namespace
     * (for storing in the cache).
     *
     * @throws FatalError on a register or location the form never saw.
     */
    litmus::Outcome toCanonical(const litmus::Outcome &outcome) const;

    /**
     * Translate a cached canonical outcome back into this test's
     * namespace.
     *
     * @throws FatalError on an untranslatable name (a cache entry from
     *         a non-isomorphic program, i.e. a corrupted store).
     */
    litmus::Outcome fromCanonical(const litmus::Outcome &outcome) const;
};

/** Location-permutation search bound; beyond it, identity order. */
inline constexpr std::size_t kMaxLocationPermutations = 5;

/** Thread-symmetry tie-break search bound (orderings per tie group). */
inline constexpr std::size_t kMaxTieOrderings = 720;

/**
 * Canonicalize @p test modulo thread permutation, thread renaming,
 * virtual-address renaming, and register renaming.
 *
 * @p test must be structurally valid (LitmusTest::validate): register
 * renaming relies on every register being written exactly once and
 * defined before use.
 */
CanonicalForm canonicalize(const litmus::LitmusTest &test);

} // namespace mixedproxy::engine

#endif // MIXEDPROXY_ENGINE_CANONICAL_HH
