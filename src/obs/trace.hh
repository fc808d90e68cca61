/**
 * @file
 * The trace-event writer behind obs::Span.
 *
 * Spans become complete ("X" phase) events: name, start timestamp, and
 * duration, in microseconds relative to the session origin, plus the
 * nesting depth at entry. Chrome's trace viewer and Perfetto both
 * reconstruct the flame graph from complete events on one track when
 * they nest properly in time, which RAII scoping guarantees here.
 *
 * Nothing is kept: the Tracer writes each closed span to its stream as
 * it arrives, so a traced run's memory does not grow with its length.
 */

#ifndef MIXEDPROXY_OBS_TRACE_HH
#define MIXEDPROXY_OBS_TRACE_HH

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string_view>

namespace mixedproxy::obs {

/** One completed span. */
struct TraceEvent
{
    std::string_view name;
    double startUs = 0.0; ///< microseconds since session origin
    double durationUs = 0.0;
    int depth = 0; ///< nesting depth when the span opened (root = 0)
    int tid = 0;   ///< worker lane (Session::threadId; 0 = main thread)

    /**
     * Service request the span belongs to (Session::requestId; 0 =
     * not part of a daemon request). Exported as an event argument so
     * a trace of a `--serve` run can be filtered per request.
     */
    std::uint64_t requestId = 0;
};

/**
 * Streams completed spans as one Chrome trace_event JSON document (an
 * object with a "traceEvents" array, all events on pid 0; open it in
 * chrome://tracing or https://ui.perfetto.dev). Construction writes the
 * document head, write() appends one event, finish() closes the
 * document. write() takes the tracer's one lock, so sessions on any
 * number of threads may share a tracer.
 */
class Tracer
{
  public:
    explicit Tracer(std::ostream &out);

    /** Closes the document if finish() has not. */
    ~Tracer() { finish(); }

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Append @p event to the document. */
    void write(const TraceEvent &event);

    /**
     * Close the document and flush the stream (once; later calls only
     * report). @return false if the stream failed at any point.
     */
    bool finish();

  private:
    std::mutex _mutex;
    std::ostream &_out;
    bool _first = true;
    bool _finished = false;
};

} // namespace mixedproxy::obs

#endif // MIXEDPROXY_OBS_TRACE_HH
