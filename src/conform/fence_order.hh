/**
 * @file
 * The forced Fence-SC order of the streaming conformance checker.
 *
 * FenceOrder is a transitively closed relation over the live SC fences,
 * held as a bit matrix with one row and one column per live fence:
 * fence id f sits at slot f - front(), where front() is the oldest live
 * id, and admit() hands out consecutive ids. retireBelow() drops the
 * oldest fences by shifting the surviving rows up and their columns
 * right by the dropped count, so the matrix never holds a retired id
 * and every query is exact.
 *
 * The matrix is window x wordsFor(window) words, allocated once;
 * insertClosure() scans only the live rows. The delta-closure kernels
 * are the ones Relation uses (relation/kernel.hh).
 */

#ifndef MIXEDPROXY_CONFORM_FENCE_ORDER_HH
#define MIXEDPROXY_CONFORM_FENCE_ORDER_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "relation/error.hh"
#include "relation/kernel.hh"

namespace mixedproxy::conform {

/** A closed relation over a sliding window of consecutive fence ids. */
class FenceOrder
{
  public:
    /** An empty order with room for @p window live fences. */
    explicit FenceOrder(std::size_t window)
        : window(window), words(relation::kernel::wordsFor(window)),
          rows(window * words, 0)
    {}

    /** Oldest live fence id; every id below it was retired. */
    std::uint64_t front() const { return first; }

    /** Number of live fences. */
    std::size_t liveCount() const { return live; }

    /**
     * Make the next fence id (front() + liveCount()) live and return
     * it. The window must have room (retire first).
     */
    std::uint64_t
    admit()
    {
        if (live == window) {
            panic("FenceOrder: live window exceeds capacity ", window,
                  " (retire fences first)");
        }
        return first + live++;
    }

    /** Retire every fence below @p fid. */
    void
    retireBelow(std::uint64_t fid)
    {
        using relation::kernel::kBitsPerWord;
        if (fid <= first)
            return;
        const auto drop = static_cast<std::size_t>(
            std::min<std::uint64_t>(fid - first, live));
        const std::size_t keep = live - drop;
        const std::size_t wordShift = drop / kBitsPerWord;
        const std::size_t bitShift = drop % kBitsPerWord;
        for (std::size_t s = 0; s < keep; s++) {
            // Row s + drop moves up to row s; its columns move right by
            // drop bits, which shifts the retired columns out.
            std::uint64_t *dst = row(s);
            const std::uint64_t *src = row(s + drop);
            for (std::size_t w = 0; w < words; w++) {
                const std::size_t from = w + wordShift;
                std::uint64_t shifted = 0;
                if (from < words)
                    shifted = src[from] >> bitShift;
                if (bitShift != 0 && from + 1 < words)
                    shifted |= src[from + 1] << (kBitsPerWord - bitShift);
                dst[w] = shifted;
            }
        }
        std::fill(row(keep), row(live), 0);
        first += drop;
        live = keep;
    }

    /** True if (a, b) is present; false if either fence is not live. */
    bool
    contains(std::uint64_t a, std::uint64_t b) const
    {
        if (!isLive(a) || !isLive(b))
            return false;
        return relation::kernel::testBit(row(slot(a)), slot(b));
    }

    /**
     * True when adding (a, b) would close a cycle: b already reaches a,
     * or a == b. Both fences must be live.
     */
    bool
    insertWouldCycle(std::uint64_t a, std::uint64_t b) const
    {
        checkLive(a);
        checkLive(b);
        return relation::kernel::closureWouldCycle(rows.data(), words,
                                                   slot(a), slot(b));
    }

    /**
     * Add (a, b) and restore transitive closure. The order must be
     * closed already; both fences must be live.
     */
    void
    insertClosure(std::uint64_t a, std::uint64_t b)
    {
        checkLive(a);
        checkLive(b);
        relation::kernel::closureInsert(rows.data(), live, words, slot(a),
                                        slot(b));
    }

  private:
    bool
    isLive(std::uint64_t fid) const
    {
        return fid >= first && fid - first < live;
    }

    void
    checkLive(std::uint64_t fid) const
    {
        if (!isLive(fid)) {
            panic("FenceOrder: fence ", fid, " is not live (live ids [",
                  first, ", ", first + live, "))");
        }
    }

    std::size_t
    slot(std::uint64_t fid) const
    {
        return static_cast<std::size_t>(fid - first);
    }

    std::uint64_t *row(std::size_t s) { return rows.data() + s * words; }
    const std::uint64_t *
    row(std::size_t s) const
    {
        return rows.data() + s * words;
    }

    std::size_t window;
    std::size_t words; ///< per row: wordsFor(window)
    std::vector<std::uint64_t> rows;
    std::uint64_t first = 0; ///< fid of slot 0
    std::size_t live = 0;
};

} // namespace mixedproxy::conform

#endif // MIXEDPROXY_CONFORM_FENCE_ORDER_HH
