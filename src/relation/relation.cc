#include "relation.hh"

namespace mixedproxy::relation {

namespace {

/** Adapter driving the legacy complete-order callback. */
struct CompleteOnlyVisitor
{
    const std::function<bool(const std::vector<EventId> &)> &visit;

    void push(EventId, const std::vector<EventId> &) {}
    void pop(EventId, const std::vector<EventId> &) {}
    bool
    complete(const std::vector<EventId> &order)
    {
        return visit(order);
    }
};

} // namespace

bool
forEachTotalOrder(
    const EventSet &subset, const Relation &partial,
    const std::function<bool(const std::vector<EventId> &)> &visit)
{
    // A cyclic constraint admits no total order; enumerate nothing. The
    // caller distinguishes "no orders" from "aborted" by tracking its own
    // visit count.
    CompleteOnlyVisitor visitor{visit};
    TotalOrderScratch scratch;
    return forEachTotalOrderVisit(subset, partial, visitor, scratch);
}

} // namespace mixedproxy::relation
