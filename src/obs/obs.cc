#include "obs.hh"

namespace mixedproxy::obs {

namespace detail {

thread_local Session *t_current = nullptr;

} // namespace detail

void
Span::begin(const char *name, Session *session)
{
    _name = name;
    _session = session;
    _depth = session->depth++;
    _start = std::chrono::steady_clock::now();
}

void
Span::end()
{
    auto stop = std::chrono::steady_clock::now();
    Session &s = *_session;
    _session = nullptr;
    if (s.depth > 0)
        s.depth--;
    // A span that outlived its session's recording window (e.g. an
    // exporter reading mid-scope state) still balances the depth but
    // records nothing.
    if (!s.enabled())
        return;
    double seconds =
        std::chrono::duration<double>(stop - _start).count();
    s.metrics.record(_name, seconds);
    if (s.tracer) {
        s.tracer->write(
            {_name,
             std::chrono::duration<double, std::micro>(_start - s.origin())
                 .count(),
             seconds * 1e6, _depth, s.threadId, s.requestId});
    }
}

} // namespace mixedproxy::obs
