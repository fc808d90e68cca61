/**
 * @file
 * The nvlitmus daemon: a long-lived checking service speaking
 * line-delimited JSON over stdin/stdout or a Unix-domain socket
 * (docs/service.md).
 *
 * Each input line is one request object; each output line is the
 * matching response object, and responses are written strictly in
 * request order (an in-order completion window), so a scripted client
 * can correlate by position and replay logs are reproducible. Requests
 * dispatch onto a runtime::ThreadPool and each executes under its own
 * obs::Session, merged into the server's parent session after
 * completion — the daemon's --stats-json aggregates every request,
 * including the engine.cache.{hit,miss} counters the cold-vs-warm CI
 * job asserts on.
 *
 * Service telemetry (ISSUE 8): every request gets a monotonically
 * assigned id (stamped onto its session, so every span and log line of
 * the request carries it), a ServiceState aggregates live metrics the
 * {"op":"metrics"} admin request snapshots (uptime, in-flight, per-op
 * latency, engine.cache.*), and `--log-json PATH` appends one
 * schema-versioned JSONL record per request lifecycle event.
 */

#ifndef MIXEDPROXY_ENGINE_SERVICE_HH
#define MIXEDPROXY_ENGINE_SERVICE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>

#include "engine/engine.hh"
#include "obs/obs.hh"

namespace mixedproxy::engine {

/** Daemon knobs. */
struct ServeOptions
{
    /** Worker threads executing requests. */
    std::size_t jobs = 1;

    /**
     * Unix-domain socket path. Empty serves one session over
     * stdin/stdout (EOF ends it); non-empty binds the socket and
     * serves connections sequentially until a shutdown request.
     */
    std::string socketPath;

    /**
     * Structured JSONL event-log path (`--log-json`); empty disables.
     * Records follow the "mixedproxy.log.v1" schema (docs/service.md).
     */
    std::string logJsonPath;
};

/**
 * A read-only copy of the daemon's live state, taken under the
 * ServiceState lock; the {"op":"metrics"} response is rendered from
 * one of these.
 */
struct ServiceSnapshot
{
    double uptimeMs = 0.0;
    std::uint64_t requestsTotal = 0;
    std::uint64_t errorsTotal = 0;
    std::int64_t inFlight = 0;
    obs::MetricsRegistry metrics;
};

/**
 * Live daemon telemetry: request/error totals, in-flight gauge, and an
 * aggregated metrics registry (per-op "service.op.<op>" latency timers
 * plus every per-request session's counters, so engine.cache.* is
 * visible without any CLI observability flags). One instance spans a
 * whole daemon lifetime — serveSocket() reuses it across connections.
 * Thread-safe.
 */
class ServiceState
{
  public:
    ServiceState() : start(std::chrono::steady_clock::now()) {}

    void requestStarted()
    {
        inFlight.fetch_add(1, std::memory_order_relaxed);
        requestsTotal.fetch_add(1, std::memory_order_relaxed);
    }

    /** Record completion: per-op latency plus the error tally. */
    void requestFinished(const std::string &op, double seconds, bool ok)
    {
        if (!ok)
            errorsTotal.fetch_add(1, std::memory_order_relaxed);
        {
            std::lock_guard lock(mutex);
            registry.record("service.op." + op, seconds);
        }
        inFlight.fetch_sub(1, std::memory_order_relaxed);
    }

    /** Fold one finished request session's metrics into the registry. */
    void mergeMetrics(const obs::MetricsRegistry &metrics)
    {
        std::lock_guard lock(mutex);
        registry.mergeFrom(metrics);
    }

    ServiceSnapshot snapshot() const
    {
        ServiceSnapshot snap;
        snap.uptimeMs =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start)
                .count();
        snap.requestsTotal =
            requestsTotal.load(std::memory_order_relaxed);
        snap.errorsTotal = errorsTotal.load(std::memory_order_relaxed);
        snap.inFlight = inFlight.load(std::memory_order_relaxed);
        {
            std::lock_guard lock(mutex);
            snap.metrics = registry;
        }
        return snap;
    }

  private:
    std::chrono::steady_clock::time_point start;
    std::atomic<std::uint64_t> requestsTotal{0};
    std::atomic<std::uint64_t> errorsTotal{0};
    std::atomic<std::int64_t> inFlight{0};
    mutable std::mutex mutex;
    obs::MetricsRegistry registry;
};

/**
 * What one handled request turned out to be, for the caller's
 * telemetry (per-op latency bucketing and the JSONL event log).
 */
struct RequestOutcome
{
    std::string op = "check"; ///< "check", "ping", "shutdown",
                              ///< "metrics", or "error"
    bool ok = false;
    bool cacheHit = false;
    std::string error; ///< message when !ok
};

/**
 * Serve the line-delimited JSON protocol from @p in to @p out until
 * EOF or a {"cmd":"shutdown"} request. Protocol errors are per-request
 * error responses, never process failures. Each request's own session
 * merges its metrics into the session bound on the calling thread at
 * entry and writes its spans through that session's tracer (none bound
 * = no aggregation, no trace).
 *
 * @return process exit code (0 on orderly shutdown, 2 on a transport
 *         failure reported to @p err).
 */
int serve(Engine &engine, const ServeOptions &options, std::istream &in,
          std::ostream &out, std::ostream &err);

/**
 * Bind options.socketPath and serve accepted connections (each with
 * the stream protocol above) until one sends {"cmd":"shutdown"}. The
 * ServiceState (and thus the metrics op's uptime and totals) spans
 * every connection.
 */
int serveSocket(Engine &engine, const ServeOptions &options,
                std::ostream &err);

/**
 * Process one request line into one response line (no trailing
 * newline). Exposed for protocol unit tests; serve() calls this on
 * pool workers. The admin field "cmd" (alias "op") selects ping /
 * shutdown / metrics; @p state backs the metrics snapshot (a null
 * state answers metrics with an error); @p outcome, when non-null,
 * reports what the request was for the caller's telemetry.
 */
std::string handleRequestLine(Engine &engine, const std::string &line,
                              bool *shutdown = nullptr,
                              const ServiceState *state = nullptr,
                              RequestOutcome *outcome = nullptr);

} // namespace mixedproxy::engine

#endif // MIXEDPROXY_ENGINE_SERVICE_HH
