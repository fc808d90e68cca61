/**
 * @file
 * Cache and store-queue building blocks of the GPU microarchitecture
 * simulator (paper Figs. 3 and 6).
 *
 * Caches are modeled as tag -> entry maps. The tag type is the point:
 * the L1, texture, and constant caches are tagged by *virtual address*
 * (or coordinates/bank id, which the litmus abstraction folds into the
 * virtual address symbol), while the L2 is tagged by *physical
 * location*. Virtual tagging is exactly what makes two aliases of one
 * location occupy unrelated lines, producing the paper's §3.2 behaviors.
 */

#ifndef MIXEDPROXY_MICROARCH_CACHE_HH
#define MIXEDPROXY_MICROARCH_CACHE_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace mixedproxy::microarch {

/** Virtual-address tag (interned litmus address symbol). */
using VirtualTag = int;

/** Physical-location tag (interned canonical location). */
using PhysicalTag = int;

/** One cache line. */
struct CacheLine
{
    std::uint64_t value = 0;

    /** Physical location this line maps to (for coherent invalidates). */
    PhysicalTag location = -1;

    /** Dirty lines hold data newer than the L2 copy. */
    bool dirty = false;

    /**
     * Trace identity of the write whose value this line holds
     * (mixedproxy.trace.v1 uid); 0 when the machine is not tracing.
     */
    std::uint64_t writerUid = 0;
};

/**
 * A little fully-associative cache, tagged by virtual address.
 *
 * No capacity modeling: litmus programs touch a handful of lines, and
 * the behaviors of interest are tagging/coherence artifacts, not
 * capacity misses.
 */
class Cache
{
  public:
    explicit Cache(std::string name) : _name(std::move(name)) {}

    const std::string &name() const { return _name; }

    /** Look up a line; nullopt on miss. */
    std::optional<CacheLine> lookup(VirtualTag tag) const;

    /** Insert or overwrite a line. */
    void fill(VirtualTag tag, std::uint64_t value, PhysicalTag location,
              bool dirty, std::uint64_t writerUid = 0);

    /** Drop every line; returns the number of lines dropped. */
    std::size_t invalidateAll();

    /**
     * Drop every line mapping to @p location (coherent-mode
     * invalidation); returns the number of lines dropped.
     */
    std::size_t invalidateLocation(PhysicalTag location);

    /** Mark the line for @p tag clean (after its flush drained). */
    void markClean(VirtualTag tag);

  private:
    std::string _name;
    std::map<VirtualTag, CacheLine> lines;
};

/** One pending store travelling from an SM toward the L2. */
struct PendingStore
{
    VirtualTag tag = -1;
    PhysicalTag location = -1;
    std::uint64_t value = 0;
    std::uint64_t sequence = 0; ///< enqueue order, for per-tag FIFO

    /** Trace identity of the buffered write (0 when not tracing). */
    std::uint64_t writerUid = 0;
};

/**
 * A store queue between one SM path (generic or surface) and the L2.
 *
 * Entries to the same virtual address drain in FIFO order; entries to
 * different addresses may drain in any order — this is the reordering
 * window that makes store buffering and the Fig. 4 scenario (3b)
 * observable.
 */
class StoreQueue
{
  public:
    /** Append a store. */
    void push(VirtualTag tag, PhysicalTag location, std::uint64_t value,
              std::uint64_t writerUid = 0);

    bool empty() const { return entries.empty(); }
    std::size_t size() const { return entries.size(); }

    /**
     * Tags that currently have a drainable (oldest-per-tag) entry.
     * One scheduler action drains one of these.
     */
    std::vector<VirtualTag> drainableTags() const;

    /** Remove and return the oldest entry for @p tag. */
    PendingStore drainTag(VirtualTag tag);

    /** Oldest-first drain of everything (fence/release semantics). */
    std::vector<PendingStore> drainAll();

    /** Oldest-first drain of every entry for @p tag. */
    std::vector<PendingStore> drainAllForTag(VirtualTag tag);

    /** Youngest entry for @p tag (store-to-load forwarding). */
    std::optional<PendingStore> forward(VirtualTag tag) const;

  private:
    std::vector<PendingStore> entries;
    std::uint64_t next_sequence = 0;
};

} // namespace mixedproxy::microarch

#endif // MIXEDPROXY_MICROARCH_CACHE_HH
