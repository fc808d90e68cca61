/**
 * @file
 * Deterministic fault injection for `mixedproxy.trace.v1` streams.
 *
 * Takes a well-formed trace (normally one the simulator recorded) and
 * plants exactly one seeded fault in the text, chosen so the streaming
 * checker must flag a specific axiom: dropping a store's `st` line
 * leaves its later `commit` orphaned (Malformed), swapping the write
 * identities of two commits that program order separates inverts the
 * observed coherence order (Coherence), and corrupting a load's value
 * breaks the reads-from value equation (RfValue). tools/tracegen and
 * the randomized differential suite share this module so the injected
 * corpus and its expected verdicts can never drift apart.
 *
 * Injection is textual — the faulted trace differs from the input by
 * one removed or edited line — because the point is to model recording
 * and transport corruption, not to re-derive a different execution.
 */

#ifndef MIXEDPROXY_CONFORM_FAULT_HH
#define MIXEDPROXY_CONFORM_FAULT_HH

#include <cstdint>
#include <optional>
#include <string>

#include "conform/checker.hh"

namespace mixedproxy::conform {

/** The fault classes tracegen can plant. */
enum class FaultKind {
    Drop,    ///< delete an `st` line whose commit arrives later
    Reorder, ///< swap two same-thread same-location commit identities
    Corrupt, ///< flip a load's observed value
};

std::string toString(FaultKind kind);

/** Parse a CLI fault name; nullopt when unrecognized. */
std::optional<FaultKind> faultKindFromString(const std::string &name);

/**
 * Plant one @p kind fault in @p trace, choosing among the viable sites
 * with a generator seeded by @p seed (same trace + seed = same fault).
 *
 * @return The faulted trace text, or nullopt when the trace offers no
 *         viable site (e.g. Reorder on a trace with no two program-
 *         order-related commits to one location).
 */
std::optional<std::string> injectFault(const std::string &trace,
                                       FaultKind kind,
                                       std::uint64_t seed);

} // namespace mixedproxy::conform

#endif // MIXEDPROXY_CONFORM_FAULT_HH
