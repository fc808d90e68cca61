/**
 * @file
 * The observability facade: sessions combining the metrics registry
 * (obs/metrics.hh) and the span tracer (obs/trace.hh).
 *
 * Design constraints: zero dependencies, and near-zero cost
 * when nothing is listening. The entire disabled path is one branch on
 * a thread-local pointer — no clock read, no allocation, no map lookup
 * — so instrumentation can sit inside the checker's per-candidate
 * loops without showing up in benchmarks (bench/checker_perf.cc proves
 * the bound). Libraries only ever *emit*, via obs::Span, obs::count,
 * and the publish() methods on their stats structs.
 *
 * A run is a value, not a process: obs::Session owns one registry +
 * clock origin and names the tracer (if any) its spans are written to,
 * and any number of sessions can be live at once — the parallel batch
 * runtime gives every worker its own, sharing the parent's tracer, and
 * merges the registries afterwards (docs/parallelism.md). Emission has
 * one route to its sink: the calling thread's "current session", bound
 * for a scope with obs::ScopedSession. Library entry points take no session
 * argument; they record into whatever the caller bound (the one option
 * field left, synth::SynthOptions::session, is bound the same way).
 *
 * Each thread records metrics only into its own bound session, so
 * that is data-race-free without any locking; merging registries is
 * the caller's (or the runtime's) explicit, post-barrier step. The one
 * shared sink is the Tracer, which serializes its writes.
 */

#ifndef MIXEDPROXY_OBS_OBS_HH
#define MIXEDPROXY_OBS_OBS_HH

#include <chrono>
#include <cstdint>

#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace mixedproxy::obs {

/**
 * One observability session: a metrics registry, the tracer spans are
 * written to, the clock origin trace timestamps are relative to, and
 * the recording flag. Sessions are plain values; create as many as you
 * need. A session records only while enabled() *and* bound as the
 * calling thread's current session (ScopedSession). Never bind one session on
 * two threads at once.
 */
class Session
{
  public:
    MetricsRegistry metrics;

    /**
     * Where closed spans are written (not owned; null = spans record
     * only their timer sample). enable() keeps it; worker and daemon
     * request sessions copy their parent's, so every span of a run
     * lands in one trace.
     */
    Tracer *tracer = nullptr;

    /**
     * Worker lane for trace export: every span recorded into this
     * session carries this value as its Chrome trace "tid", so the
     * trace viewer shows real per-worker lanes (0 = main thread; the
     * parallel runtime numbers workers from 1).
     */
    int threadId = 0;

    /**
     * Service request id for span export: the daemon stamps every
     * request's session with its monotonically assigned id, and every
     * span recorded into the session carries it (TraceEvent::requestId,
     * JSONL log lines). 0 = not a service request. enable() does not
     * reset it — set it after enabling.
     */
    std::uint64_t requestId = 0;

    /** Start recording on a fresh timeline: clear data, origin = now. */
    void enable()
    {
        enableWithOrigin(std::chrono::steady_clock::now());
    }

    /**
     * Start recording against an existing timeline — worker sessions
     * adopt their parent's origin so merged traces share one clock.
     */
    void enableWithOrigin(std::chrono::steady_clock::time_point origin)
    {
        metrics.clear();
        depth = 0;
        _origin = origin;
        _enabled = true;
    }

    /**
     * Stop recording. The metrics stay readable (for export or
     * merging) until the next enable().
     */
    void disable() { _enabled = false; }

    /** True while this session is recording. */
    bool enabled() const { return _enabled; }

    /** The instant trace timestamps are relative to. */
    std::chrono::steady_clock::time_point origin() const
    {
        return _origin;
    }

    /** Current span nesting depth (span bookkeeping). */
    int depth = 0;

  private:
    bool _enabled = false;
    std::chrono::steady_clock::time_point _origin{};
};

namespace detail {

/**
 * The calling thread's recording sink; null when nothing listens.
 * Invariant: non-null only while the pointee is enabled — the hot-path
 * "is anyone listening" check is exactly one thread-local load.
 */
extern thread_local Session *t_current;

} // namespace detail

/** True when the calling thread has a recording session bound. */
inline bool
enabled()
{
    return detail::t_current != nullptr;
}

/**
 * The calling thread's current session, or null when none is bound.
 * Library code uses this to publish stats structs at phase end.
 */
inline Session *
current()
{
    return detail::t_current;
}

/**
 * Bind @p session as the calling thread's current session for this
 * scope (restoring the previous binding on destruction). Binding a
 * null session is a no-op — the ambient binding stays in effect — so
 * callers can bind an optional session unconditionally.
 * Binding a non-null but disabled session suppresses recording for the
 * scope: an explicitly passed session is the sink, period.
 */
class ScopedSession
{
  public:
    explicit ScopedSession(Session *session)
        : _previous(detail::t_current), _bound(session != nullptr)
    {
        if (_bound)
            detail::t_current = session->enabled() ? session : nullptr;
    }

    ~ScopedSession()
    {
        if (_bound)
            detail::t_current = _previous;
    }

    ScopedSession(const ScopedSession &) = delete;
    ScopedSession &operator=(const ScopedSession &) = delete;

  private:
    Session *_previous;
    bool _bound;
};

/** Add @p delta to counter @p name; no-op when nothing is bound. */
inline void
count(const char *name, std::uint64_t delta = 1)
{
    if (Session *s = detail::t_current)
        s->metrics.add(name, delta);
}

/** Set gauge @p name; no-op when nothing is bound. */
inline void
gauge(const char *name, double value)
{
    if (Session *s = detail::t_current)
        s->metrics.set(name, value);
}

/**
 * RAII trace span. When a session is bound, construction reads the
 * monotonic clock and destruction records one timer sample named after
 * the span and, when the session has a tracer, writes one TraceEvent
 * through it — so every span phase appears in the --timing /
 * stats-JSON histograms and in the Chrome trace. When nothing is
 * bound, construction and destruction are each a single branch.
 *
 * The span captures its session at construction: if the session stops
 * recording before the span closes, the span still rebalances the
 * nesting depth but records nothing.
 *
 * The @p name must outlive the span (string literals in practice);
 * span names are the stable phase identifiers documented in
 * docs/observability.md.
 */
class Span
{
  public:
    explicit Span(const char *name)
    {
        if (Session *s = detail::t_current)
            begin(name, s);
    }

    ~Span()
    {
        if (_session)
            end();
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    void begin(const char *name, Session *session);
    void end();

    const char *_name = nullptr;
    Session *_session = nullptr;
    std::chrono::steady_clock::time_point _start;
    int _depth = 0;
};

} // namespace mixedproxy::obs

#endif // MIXEDPROXY_OBS_OBS_HH
