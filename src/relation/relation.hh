/**
 * @file
 * A finite binary relation over the event universe.
 *
 * This class provides the relational-algebra operators that Alloy-style
 * axiomatic memory model definitions are written in: union, intersection,
 * difference, composition (join), restriction, and transitive closure,
 * plus the acyclicity/irreflexivity checks the model axioms are phrased
 * as.
 *
 * The representation is a dense adjacency bit-matrix over {0..n-1}:
 * n rows of kernel::wordsFor(n) words, backed by kernel::WordStore so
 * litmus-scale relations (tens of events) live inline. The checker,
 * pre-solver and synthesizer all build on it.
 *
 * Hot-path operations are built on the word-level kernels in kernel.hh
 * and accept any callable. The delta operations (insertClosure,
 * insertWouldCycle) let an already-closed relation be *extended* edge by
 * edge without recomputing the closure from scratch —
 * the substrate of the checker's incremental enumeration core. Their
 * row-level kernel (kernel.hh closureInsert) also maintains the
 * streaming checker's Fence-SC order (src/conform/fence_order.hh).
 */

#ifndef MIXEDPROXY_RELATION_RELATION_HH
#define MIXEDPROXY_RELATION_RELATION_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "error.hh"
#include "event_set.hh"
#include "kernel.hh"
#include "word_store.hh"

namespace mixedproxy::relation {

/** An ordered pair within a relation. */
using EventPair = std::pair<EventId, EventId>;

/** A binary relation on the universe {0, ..., size()-1}. */
class Relation
{
  public:
    /** Construct the empty relation over a universe of @p size ids. */
    explicit Relation(std::size_t size = 0)
        : n(size), words(size * kernel::wordsFor(size))
    {}

    /** Construct from an explicit pair list. */
    Relation(std::size_t size, std::initializer_list<EventPair> pairList)
        : Relation(size)
    {
        for (const auto &[a, b] : pairList)
            insert(a, b);
    }

    /** The identity relation over a universe of @p n ids. */
    static Relation
    identity(std::size_t n)
    {
        Relation r(n);
        for (EventId i = 0; i < n; i++)
            r.insert(i, i);
        return r;
    }

    /** The full (complete) relation over a universe of @p n ids. */
    static Relation
    full(std::size_t n)
    {
        return product(EventSet::full(n), EventSet::full(n));
    }

    /** Cartesian product of two sets (must share a universe). */
    static Relation
    product(const EventSet &from, const EventSet &to)
    {
        if (from.universeSize() != to.universeSize())
            panic("Relation::product: universe mismatch");
        Relation r(from.universeSize());
        from.forEach([&](EventId a) {
            to.forEach([&](EventId b) { r.insert(a, b); });
        });
        return r;
    }

    /** Number of ids in the universe. */
    std::size_t universeSize() const { return n; }

    /** Number of pairs in the relation. */
    std::size_t
    pairCount() const
    {
        return kernel::popcount(words.data(), words.size());
    }

    /** True if the relation has no pairs (any-bit word scan). */
    bool
    empty() const
    {
        return !kernel::anyBit(words.data(), words.size());
    }

    /** Add the pair (a, b). */
    void
    insert(EventId a, EventId b)
    {
        checkId(a);
        checkId(b);
        kernel::setBit(row(a), b);
    }

    /** Remove the pair (a, b). */
    void
    erase(EventId a, EventId b)
    {
        checkId(a);
        checkId(b);
        kernel::clearBit(row(a), b);
    }

    /** True if the pair (a, b) is present. */
    bool
    contains(EventId a, EventId b) const
    {
        if (a >= n || b >= n)
            return false;
        return kernel::testBit(row(a), b);
    }

    /** Relation union. */
    Relation
    operator|(const Relation &other) const
    {
        Relation r(*this);
        r |= other;
        return r;
    }

    /** Relation intersection. */
    Relation
    operator&(const Relation &other) const
    {
        Relation r(*this);
        r &= other;
        return r;
    }

    /** Relation difference. */
    Relation
    operator-(const Relation &other) const
    {
        Relation r(*this);
        r -= other;
        return r;
    }

    Relation &
    operator|=(const Relation &other)
    {
        checkUniverse(other, "union");
        kernel::orInto(words.data(), other.words.data(), words.size());
        return *this;
    }

    Relation &
    operator&=(const Relation &other)
    {
        checkUniverse(other, "intersection");
        kernel::andInto(words.data(), other.words.data(), words.size());
        return *this;
    }

    Relation &
    operator-=(const Relation &other)
    {
        checkUniverse(other, "difference");
        kernel::andNotInto(words.data(), other.words.data(),
                           words.size());
        return *this;
    }

    bool
    operator==(const Relation &other) const
    {
        return n == other.n && words == other.words;
    }
    bool operator!=(const Relation &other) const = default;

    /** Relational composition: (a, c) iff exists b: (a,b) and (b,c). */
    Relation
    compose(const Relation &other) const
    {
        checkUniverse(other, "compose");
        Relation r(n);
        const std::size_t rowWords = wordsPerRow();
        for (EventId a = 0; a < n; a++) {
            std::uint64_t *out = r.row(a);
            // Row-broadcast join: OR the successor row of every mid
            // into a's output row.
            kernel::forEachSetBit(row(a), rowWords, [&](std::size_t mid) {
                kernel::orInto(out, other.row(mid), rowWords);
            });
        }
        return r;
    }

    /** Irreflexive transitive closure (Alloy ^r). */
    Relation
    transitiveClosure() const
    {
        // Semi-naive delta-frontier propagation (kernel.hh
        // frontierClosure), with a single-word in-place Floyd-Warshall
        // fast path for universes of up to 64 ids: O(n^2) word ORs with
        // no allocation or worklist bookkeeping — far below the
        // semi-naive path's constant factor at litmus scale. The
        // closure is unique, so the paths agree bit for bit.
        Relation r(*this);
        if (n == 0)
            return r;
        if (wordsPerRow() == 1) {
            std::uint64_t *rows = r.words.data();
            for (EventId k = 0; k < n; k++) {
                const std::uint64_t krow = rows[k];
                for (EventId i = 0; i < n; i++) {
                    if ((rows[i] >> k) & 1)
                        rows[i] |= krow;
                }
            }
            return r;
        }
        kernel::frontierClosure(r.words.data(), n, wordsPerRow());
        return r;
    }

    /**
     * Delta closure maintenance: add the pair (a, b) to an already
     * transitively closed relation and restore closure by broadcasting
     * b's successor row into every predecessor of a. Precondition:
     * *this is transitively closed (as by transitiveClosure()); the
     * result is bit-identical to rebuilding the closure from scratch
     * with (a, b) added.
     */
    void
    insertClosure(EventId a, EventId b)
    {
        checkId(a);
        checkId(b);
        kernel::closureInsert(words.data(), n, wordsPerRow(), a, b);
    }

    /**
     * Incremental acyclicity check: true when adding (a, b) to this
     * transitively closed, currently acyclic relation would create a
     * cycle (b already reaches a, or a == b).
     */
    bool
    insertWouldCycle(EventId a, EventId b) const
    {
        return a == b || contains(b, a);
    }

    /** Restrict both sides to @p s: s <: r :> s. */
    Relation
    restrict(const EventSet &s) const
    {
        return restrictDomain(s).restrictRange(s);
    }

    /** Restrict the domain to @p s (Alloy s <: r). */
    Relation
    restrictDomain(const EventSet &s) const
    {
        if (s.universeSize() != n)
            panic("Relation::restrictDomain: universe mismatch");
        Relation r(n);
        const std::size_t rowWords = wordsPerRow();
        s.forEach([&](EventId a) {
            const std::uint64_t *src = row(a);
            std::copy(src, src + rowWords, r.row(a));
        });
        return r;
    }

    /** Restrict the range to @p s (Alloy r :> s). */
    Relation
    restrictRange(const EventSet &s) const
    {
        if (s.universeSize() != n)
            panic("Relation::restrictRange: universe mismatch");
        // Mask every row with s's membership words.
        Relation r(*this);
        const std::size_t rowWords = wordsPerRow();
        const std::uint64_t *mask = s.wordData();
        for (EventId a = 0; a < n; a++)
            kernel::andInto(r.row(a), mask, rowWords);
        return r;
    }

    /** Keep only pairs satisfying @p pred. */
    template <typename Pred>
    Relation
    filter(Pred &&pred) const
    {
        Relation r(n);
        forEach([&](EventId a, EventId b) {
            if (pred(a, b))
                r.insert(a, b);
        });
        return r;
    }

    /** Set of ids appearing on the left of some pair. */
    EventSet
    domain() const
    {
        EventSet s(n);
        const std::size_t rowWords = wordsPerRow();
        for (EventId a = 0; a < n; a++) {
            if (kernel::anyBit(row(a), rowWords))
                s.insert(a);
        }
        return s;
    }

    /** Set of ids appearing on the right of some pair. */
    EventSet
    range() const
    {
        EventSet s(n);
        const std::size_t rowWords = wordsPerRow();
        kernel::WordStore acc(rowWords);
        for (EventId a = 0; a < n; a++)
            kernel::orInto(acc.data(), row(a), rowWords);
        kernel::forEachSetBit(acc.data(), rowWords,
                              [&](std::size_t b) { s.insert(b); });
        return s;
    }

    /** Image of a single id: all b with (a, b). */
    EventSet
    successors(EventId a) const
    {
        checkId(a);
        EventSet s(n);
        kernel::forEachSetBit(row(a), wordsPerRow(),
                              [&](std::size_t b) { s.insert(b); });
        return s;
    }

    /** Preimage of a single id: all a with (a, b). */
    EventSet
    predecessors(EventId b) const
    {
        checkId(b);
        EventSet s(n);
        for (EventId a = 0; a < n; a++) {
            if (contains(a, b))
                s.insert(a);
        }
        return s;
    }

    /** True if no (a, a) pair is present. */
    bool
    irreflexive() const
    {
        for (EventId i = 0; i < n; i++) {
            if (contains(i, i))
                return false;
        }
        return true;
    }

    /** True if the relation, viewed as a digraph, has no cycle. */
    bool
    acyclic() const
    {
        return transitiveClosure().irreflexive();
    }

    /** True if r;r is a subset of r. */
    bool
    transitive() const
    {
        return compose(*this).subsetOf(*this);
    }

    /** True if this relation is a subset of @p other. */
    bool
    subsetOf(const Relation &other) const
    {
        checkUniverse(other, "subsetOf");
        for (std::size_t i = 0; i < words.size(); i++) {
            if (words.data()[i] & ~other.words.data()[i])
                return false;
        }
        return true;
    }

    /** All pairs in lexicographic order. */
    std::vector<EventPair>
    pairs() const
    {
        std::vector<EventPair> out;
        forEach([&out](EventId a, EventId b) { out.emplace_back(a, b); });
        return out;
    }

    /** Invoke @p fn for every pair in lexicographic order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        const std::size_t rowWords = wordsPerRow();
        for (EventId a = 0; a < n; a++) {
            kernel::forEachSetBit(row(a), rowWords,
                                  [&](std::size_t b) { fn(a, b); });
        }
    }

    /**
     * Find one a->...->b path and return its interior vertices, or
     * nullopt if b is unreachable from a. Used for diagnostics (showing
     * which causality path justified a verdict).
     */
    std::optional<std::vector<EventId>>
    findPath(EventId a, EventId b) const
    {
        checkId(a);
        checkId(b);
        // BFS, recording parents.
        std::vector<EventId> parent(n, n);
        std::vector<EventId> queue;
        std::vector<bool> seen(n, false);
        queue.push_back(a);
        seen[a] = true;
        for (std::size_t head = 0; head < queue.size(); head++) {
            EventId cur = queue[head];
            for (EventId next = 0; next < n; next++) {
                if (!contains(cur, next) || seen[next])
                    continue;
                parent[next] = cur;
                if (next == b) {
                    std::vector<EventId> path;
                    for (EventId v = parent[b]; v != a && v != n;
                         v = parent[v]) {
                        path.push_back(v);
                    }
                    std::reverse(path.begin(), path.end());
                    return path;
                }
                seen[next] = true;
                queue.push_back(next);
            }
        }
        return std::nullopt;
    }

    /**
     * One topological order of @p s consistent with this relation,
     * written into caller-owned scratch (cleared first) so hot loops
     * can reuse the vector's capacity across calls; returns false if
     * the relation restricted to s is cyclic. The checker's value evaluation calls this once
     * per rf assignment.
     */
    bool
    topologicalOrderInto(const EventSet &s,
                         std::vector<EventId> &out) const
    {
        if (s.universeSize() != n)
            panic("Relation::topologicalOrder: universe mismatch");
        out.clear();
        if (wordsPerRow() == 1 && n != 0) {
            // Single-word universe: Kahn's algorithm on row masks with
            // a stack-local ready stack — same LIFO visit order as the
            // general path below, zero scratch allocation. The checker
            // calls this once per rf assignment, where the general
            // path's restrict() copy and members() vector dominated
            // its profile.
            const std::uint64_t mask = s.wordData()[0];
            const std::uint64_t *rows = words.data();
            std::uint8_t indeg[64] = {};
            for (std::uint64_t m = mask; m != 0; m &= m - 1) {
                const auto a =
                    static_cast<std::size_t>(std::countr_zero(m));
                for (std::uint64_t row = rows[a] & mask; row != 0;
                     row &= row - 1) {
                    indeg[std::countr_zero(row)]++;
                }
            }
            EventId ready[64];
            std::size_t top = 0;
            for (std::uint64_t m = mask; m != 0; m &= m - 1) {
                const auto a =
                    static_cast<EventId>(std::countr_zero(m));
                if (indeg[a] == 0)
                    ready[top++] = a;
            }
            const auto count =
                static_cast<std::size_t>(std::popcount(mask));
            out.reserve(count);
            while (top != 0) {
                const EventId cur = ready[--top];
                out.push_back(cur);
                for (std::uint64_t row = rows[cur] & mask; row != 0;
                     row &= row - 1) {
                    const auto next =
                        static_cast<EventId>(std::countr_zero(row));
                    if (--indeg[next] == 0)
                        ready[top++] = next;
                }
            }
            return out.size() == count;
        }
        auto ids = s.members();
        std::vector<std::size_t> indegree(n, 0);
        Relation sub = restrict(s);
        sub.forEach([&](EventId, EventId b) { indegree[b]++; });
        std::vector<EventId> ready;
        for (EventId id : ids) {
            if (indegree[id] == 0)
                ready.push_back(id);
        }
        while (!ready.empty()) {
            EventId cur = ready.back();
            ready.pop_back();
            out.push_back(cur);
            sub.successors(cur).forEach([&](EventId next) {
                if (--indegree[next] == 0)
                    ready.push_back(next);
            });
        }
        return out.size() == ids.size();
    }

    /** Render as "{(0,1), (2,3)}" for diagnostics. */
    std::string
    toString() const
    {
        std::ostringstream os;
        os << "{";
        bool first = true;
        forEach([&](EventId a, EventId b) {
            if (!first)
                os << ", ";
            first = false;
            os << "(" << a << "," << b << ")";
        });
        os << "}";
        return os.str();
    }

  private:
    std::size_t wordsPerRow() const { return kernel::wordsFor(n); }

    std::uint64_t *row(EventId a) { return words.data() + a * wordsPerRow(); }
    const std::uint64_t *
    row(EventId a) const
    {
        return words.data() + a * wordsPerRow();
    }

    void
    checkUniverse(const Relation &other, const char *op) const
    {
        if (other.n != n) {
            panic("Relation ", op, ": universe mismatch ", n, " vs ",
                  other.n);
        }
    }

    void
    checkId(EventId id) const
    {
        if (id >= n)
            panic("Relation id ", id, " out of universe ", n);
    }

    std::size_t n = 0;
    kernel::WordStore words;
};

namespace detail {

template <typename Visitor>
bool
totalOrderVisitRec(const std::vector<EventId> &ids, const Relation &closed,
                   std::vector<bool> &placed, std::vector<EventId> &prefix,
                   Visitor &visitor)
{
    if (prefix.size() == ids.size())
        return visitor.complete(prefix);
    for (std::size_t i = 0; i < ids.size(); i++) {
        if (placed[i])
            continue;
        EventId candidate = ids[i];
        // candidate may come next only if no unplaced id must precede it.
        bool ok = true;
        for (std::size_t j = 0; j < ids.size(); j++) {
            if (j != i && !placed[j] &&
                closed.contains(ids[j], candidate)) {
                ok = false;
                break;
            }
        }
        if (!ok)
            continue;
        placed[i] = true;
        prefix.push_back(candidate);
        visitor.push(candidate, prefix);
        bool keep_going =
            totalOrderVisitRec(ids, closed, placed, prefix, visitor);
        visitor.pop(candidate, prefix);
        prefix.pop_back();
        placed[i] = false;
        if (!keep_going)
            return false;
    }
    return true;
}

} // namespace detail

/** Caller-owned working vectors of forEachTotalOrderVisit. */
struct TotalOrderScratch
{
    std::vector<EventId> ids;
    std::vector<bool> placed;
    std::vector<EventId> prefix;
};

/**
 * Enumerate every strict total order of @p subset consistent with the
 * partial constraint @p partial, driving a stateful visitor:
 *
 *   visitor.push(id, prefix)  — id was appended (prefix includes it);
 *   visitor.pop(id, prefix)   — about to remove id (prefix still has it);
 *   visitor.complete(order)   — a full order; return false to abort.
 *
 * The push/pop hooks let the caller maintain incremental per-prefix
 * state (the checker re-checks per-location axioms as the coherence
 * order is extended). At each step candidates are tried in ascending
 * id order.
 *
 * The working vectors live in @p scratch, so a caller that enumerates
 * orders many times reuses their capacity.
 *
 * @return false if visitor.complete ever returned false.
 */
template <typename Visitor>
bool
forEachTotalOrderVisit(const EventSet &subset, const Relation &partial,
                       Visitor &&visitor, TotalOrderScratch &scratch)
{
    scratch.ids.clear();
    subset.forEach([&](EventId id) { scratch.ids.push_back(id); });
    scratch.placed.assign(scratch.ids.size(), false);
    scratch.prefix.clear();
    return detail::totalOrderVisitRec(scratch.ids,
                                      partial.transitiveClosure(),
                                      scratch.placed, scratch.prefix,
                                      visitor);
}

} // namespace mixedproxy::relation

#endif // MIXEDPROXY_RELATION_RELATION_HH
