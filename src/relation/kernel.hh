/**
 * @file
 * Branch-free word-level kernels for the dense bit-matrix relation layer.
 *
 * Every hot relational operation (union, intersection, difference,
 * composition, closure, delta maintenance) reduces to a handful of
 * row-wise word operations; this header centralizes them so Relation,
 * EventSet and the checker's incremental layers share one implementation.
 * All word-span functions are inline, operate on raw 64-bit word spans,
 * allocate nothing, and avoid per-bit branching beyond set-bit
 * iteration.
 *
 * The tail of the header holds the delta-closure maintenance ops
 * (closureInsert / closureWouldCycle) and the semi-naive frontier
 * closure. They work on raw rows with an explicit row count, so the
 * conformance checker's Fence-SC order (src/conform/fence_order.hh)
 * runs the same delta ops as Relation over its live rows only.
 */

#ifndef MIXEDPROXY_RELATION_KERNEL_HH
#define MIXEDPROXY_RELATION_KERNEL_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "word_store.hh"

namespace mixedproxy::relation::kernel {

constexpr std::size_t kBitsPerWord = 64;

/** Words needed to hold @p n bits. */
inline std::size_t
wordsFor(std::size_t n)
{
    return (n + kBitsPerWord - 1) / kBitsPerWord;
}

/** dst |= src, word-wise. */
inline void
orInto(std::uint64_t *dst, const std::uint64_t *src, std::size_t words)
{
    for (std::size_t i = 0; i < words; i++)
        dst[i] |= src[i];
}

/** dst &= src, word-wise. */
inline void
andInto(std::uint64_t *dst, const std::uint64_t *src, std::size_t words)
{
    for (std::size_t i = 0; i < words; i++)
        dst[i] &= src[i];
}

/** dst &= ~src, word-wise. */
inline void
andNotInto(std::uint64_t *dst, const std::uint64_t *src, std::size_t words)
{
    for (std::size_t i = 0; i < words; i++)
        dst[i] &= ~src[i];
}

/** dst |= src; true if any bit of dst was newly set. */
inline bool
orIntoGrew(std::uint64_t *dst, const std::uint64_t *src, std::size_t words)
{
    std::uint64_t grew = 0;
    for (std::size_t i = 0; i < words; i++) {
        std::uint64_t add = src[i] & ~dst[i];
        dst[i] |= add;
        grew |= add;
    }
    return grew != 0;
}

/** True if any bit in the span is set. */
inline bool
anyBit(const std::uint64_t *p, std::size_t words)
{
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < words; i++)
        acc |= p[i];
    return acc != 0;
}

/** True if a & b share any set bit. */
inline bool
intersects(const std::uint64_t *a, const std::uint64_t *b,
           std::size_t words)
{
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < words; i++)
        acc |= a[i] & b[i];
    return acc != 0;
}

/** True if bit @p i is set. */
inline bool
testBit(const std::uint64_t *p, std::size_t i)
{
    return (p[i / kBitsPerWord] >> (i % kBitsPerWord)) & 1;
}

/** Set bit @p i. */
inline void
setBit(std::uint64_t *p, std::size_t i)
{
    p[i / kBitsPerWord] |= std::uint64_t{1} << (i % kBitsPerWord);
}

/** Clear bit @p i. */
inline void
clearBit(std::uint64_t *p, std::size_t i)
{
    p[i / kBitsPerWord] &= ~(std::uint64_t{1} << (i % kBitsPerWord));
}

/** Number of set bits in the span. */
inline std::size_t
popcount(const std::uint64_t *p, std::size_t words)
{
    std::size_t count = 0;
    for (std::size_t i = 0; i < words; i++)
        count += static_cast<std::size_t>(std::popcount(p[i]));
    return count;
}

/** Invoke @p fn with the index of every set bit, ascending. */
template <typename Fn>
inline void
forEachSetBit(const std::uint64_t *p, std::size_t words, Fn &&fn)
{
    for (std::size_t wi = 0; wi < words; wi++) {
        std::uint64_t w = p[wi];
        while (w != 0) {
            int bit = std::countr_zero(w);
            w &= w - 1;
            fn(wi * kBitsPerWord + static_cast<std::size_t>(bit));
        }
    }
}

/*
 * Delta-closure maintenance over a raw bit matrix: @p rows points at
 * @p rowCount rows of @p words words each (row r at rows + r * words),
 * and column bit c of a row stands for id c. Relation passes its whole
 * universe; the conformance checker's fence order passes only its live
 * rows.
 */

/**
 * Incremental acyclicity probe: true when adding (a, b) to a
 * transitively closed, acyclic relation would create a cycle (b
 * already reaches a, or a == b).
 */
inline bool
closureWouldCycle(const std::uint64_t *rows, std::size_t words,
                  std::size_t a, std::size_t b)
{
    return a == b || testBit(rows + b * words, a);
}

/**
 * Add the pair (a, b) to an already transitively closed relation and
 * restore closure by broadcasting reach(b) = {b} ∪ succ(b) into every
 * row that reaches a (and a itself). Scans the first @p rowCount rows.
 */
inline void
closureInsert(std::uint64_t *rows, std::size_t rowCount, std::size_t words,
              std::size_t a, std::size_t b)
{
    WordStore breach(words);
    const std::uint64_t *brow = rows + b * words;
    std::copy(brow, brow + words, breach.data());
    setBit(breach.data(), b);
    for (std::size_t x = 0; x < rowCount; x++) {
        std::uint64_t *row = rows + x * words;
        if (x == a || testBit(row, a))
            orInto(row, breach.data(), words);
    }
}

/**
 * Close the relation transitively, in place, by semi-naive
 * delta-frontier propagation: each vertex carries the bits newly added
 * to its successor row since it was last propagated; a delta is pushed
 * word-wise into the rows of the vertex's direct predecessors, and only
 * vertices whose rows grew re-enter the worklist.
 */
inline void
frontierClosure(std::uint64_t *rows, std::size_t rowCount, std::size_t words)
{
    if (rowCount == 0)
        return;

    // Transposed adjacency: preds row of x lists x's direct
    // predecessors as column bits.
    WordStore preds(rowCount * words);
    for (std::size_t a = 0; a < rowCount; a++) {
        forEachSetBit(rows + a * words, words, [&](std::size_t b) {
            setBit(preds.data() + b * words, a);
        });
    }

    // Unpropagated deltas start as the rows themselves.
    WordStore pending(rowCount * words);
    std::copy(rows, rows + rowCount * words, pending.data());
    std::vector<char> queued(rowCount, 0);
    std::vector<std::size_t> worklist;
    worklist.reserve(rowCount);
    for (std::size_t x = 0; x < rowCount; x++) {
        if (anyBit(pending.data() + x * words, words)) {
            queued[x] = 1;
            worklist.push_back(x);
        }
    }

    WordStore delta(words);
    while (!worklist.empty()) {
        const std::size_t x = worklist.back();
        worklist.pop_back();
        queued[x] = 0;
        std::uint64_t *pend = pending.data() + x * words;
        std::copy(pend, pend + words, delta.data());
        std::fill(pend, pend + words, 0);
        forEachSetBit(preds.data() + x * words, words, [&](std::size_t p) {
            // row(p) |= delta; newly set bits become p's delta.
            std::uint64_t *prow = rows + p * words;
            std::uint64_t *ppend = pending.data() + p * words;
            std::uint64_t grew = 0;
            for (std::size_t wi = 0; wi < words; wi++) {
                std::uint64_t add = delta[wi] & ~prow[wi];
                prow[wi] |= add;
                ppend[wi] |= add;
                grew |= add;
            }
            if (grew != 0 && !queued[p]) {
                queued[p] = 1;
                worklist.push_back(p);
            }
        });
    }
}

} // namespace mixedproxy::relation::kernel

#endif // MIXEDPROXY_RELATION_KERNEL_HH
