/**
 * @file
 * A set of event identifiers.
 *
 * Events in a candidate execution are numbered 0..size-1; an EventSet is
 * a dense bitset over that universe, backed by kernel::WordStore. This
 * is the "set" half of the relational algebra used to transliterate the
 * Alloy-style memory model definitions.
 */

#ifndef MIXEDPROXY_RELATION_EVENT_SET_HH
#define MIXEDPROXY_RELATION_EVENT_SET_HH

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include "error.hh"
#include "kernel.hh"
#include "word_store.hh"

namespace mixedproxy::relation {

/** Identifier of an event within one candidate execution. */
using EventId = std::size_t;

/** A subset of the event universe {0, ..., size()-1}. */
class EventSet
{
  public:
    /** Construct the empty set over a universe of @p size ids. */
    explicit EventSet(std::size_t size = 0)
        : n(size), words(kernel::wordsFor(size))
    {}

    /** Construct from an explicit list of members. */
    EventSet(std::size_t size, std::initializer_list<EventId> members)
        : EventSet(size)
    {
        for (EventId id : members)
            insert(id);
    }

    /** The full set over a universe of @p universe_size ids. */
    static EventSet
    full(std::size_t universe_size)
    {
        EventSet s(universe_size);
        const std::size_t count = s.words.size();
        for (std::size_t i = 0; i < count; i++)
            s.words.data()[i] = ~std::uint64_t{0};
        // Clear bits beyond the universe in the last word.
        std::size_t tail = universe_size % kernel::kBitsPerWord;
        if (tail != 0 && count != 0)
            s.words.data()[count - 1] &= (std::uint64_t{1} << tail) - 1;
        return s;
    }

    /** Number of ids in the universe (not the cardinality). */
    std::size_t universeSize() const { return n; }

    /** Number of members. */
    std::size_t
    count() const
    {
        return kernel::popcount(words.data(), words.size());
    }

    /** True if the set has no members (any-bit word scan). */
    bool
    empty() const
    {
        return !kernel::anyBit(words.data(), words.size());
    }

    /** Add @p id to the set. */
    void
    insert(EventId id)
    {
        checkId(id);
        kernel::setBit(words.data(), id);
    }

    /** Remove @p id from the set. */
    void
    erase(EventId id)
    {
        checkId(id);
        kernel::clearBit(words.data(), id);
    }

    /** True if @p id is a member. */
    bool
    contains(EventId id) const
    {
        if (id >= n)
            return false;
        return kernel::testBit(words.data(), id);
    }

    /** Set union. */
    EventSet
    operator|(const EventSet &other) const
    {
        EventSet r(*this);
        r |= other;
        return r;
    }

    /** Set intersection. */
    EventSet
    operator&(const EventSet &other) const
    {
        EventSet r(*this);
        r &= other;
        return r;
    }

    /** Set difference. */
    EventSet
    operator-(const EventSet &other) const
    {
        EventSet r(*this);
        r -= other;
        return r;
    }

    EventSet &
    operator|=(const EventSet &other)
    {
        checkUniverse(other, "union");
        kernel::orInto(words.data(), other.words.data(), words.size());
        return *this;
    }

    EventSet &
    operator&=(const EventSet &other)
    {
        checkUniverse(other, "intersection");
        kernel::andInto(words.data(), other.words.data(), words.size());
        return *this;
    }

    EventSet &
    operator-=(const EventSet &other)
    {
        checkUniverse(other, "difference");
        kernel::andNotInto(words.data(), other.words.data(),
                           words.size());
        return *this;
    }

    bool
    operator==(const EventSet &other) const
    {
        return n == other.n && words == other.words;
    }
    bool operator!=(const EventSet &other) const = default;

    /** True if this set is a subset of @p other. */
    bool
    subsetOf(const EventSet &other) const
    {
        checkUniverse(other, "subsetOf");
        for (std::size_t i = 0; i < words.size(); i++) {
            if (words.data()[i] & ~other.words.data()[i])
                return false;
        }
        return true;
    }

    /** Members in ascending order. */
    std::vector<EventId>
    members() const
    {
        std::vector<EventId> out;
        forEach([&out](EventId id) { out.push_back(id); });
        return out;
    }

    /** Invoke @p fn for each member in ascending order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        kernel::forEachSetBit(words.data(), words.size(), fn);
    }

    /** Keep only members satisfying @p pred. */
    template <typename Pred>
    EventSet
    filter(Pred &&pred) const
    {
        EventSet r(n);
        forEach([&](EventId id) {
            if (pred(id))
                r.insert(id);
        });
        return r;
    }

    /** Raw membership words (kernel.hh layout), for row masking. */
    const std::uint64_t *wordData() const { return words.data(); }

    /** Render as "{0, 3, 5}" for diagnostics. */
    std::string
    toString() const
    {
        std::ostringstream os;
        os << "{";
        bool first = true;
        forEach([&](EventId id) {
            if (!first)
                os << ", ";
            first = false;
            os << id;
        });
        os << "}";
        return os.str();
    }

  private:
    void
    checkId(EventId id) const
    {
        if (id >= n)
            panic("EventSet id ", id, " out of universe ", n);
    }

    void
    checkUniverse(const EventSet &other, const char *op) const
    {
        if (other.n != n) {
            panic("EventSet ", op, ": universe mismatch ", n, " vs ",
                  other.n);
        }
    }

    std::size_t n = 0;
    kernel::WordStore words;
};

} // namespace mixedproxy::relation

#endif // MIXEDPROXY_RELATION_EVENT_SET_HH
