#include "parallel.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <vector>

#include "obs/obs.hh"
#include "runtime/thread_pool.hh"

namespace mixedproxy::runtime {

void
parallelFor(std::size_t n, std::size_t jobs,
            const std::function<void(std::size_t)> &body)
{
    if (jobs <= 1 || n <= 1) {
        // Serial path: run inline under the caller's bound session,
        // exactly as the pre-runtime code would have.
        for (std::size_t i = 0; i < n; i++)
            body(i);
        return;
    }

    // The calling thread's session; non-null only while it records.
    obs::Session *parent = obs::current();
    const bool observing = parent != nullptr;
    std::size_t workers = std::min(jobs, n);

    // Draw runs of indices, not single indices: small litmus checks
    // finish in microseconds, so one fetch_add per index would put the
    // shared counter's cache line on the critical path. n / (workers *
    // 8) is large enough to cut that contention and small enough that
    // the tail imbalance stays under ~1/8 of a worker's share; results
    // land in slot i whichever worker draws it.
    const std::size_t chunk =
        std::max<std::size_t>(1, n / (workers * 8));

    // Worker sessions exist only while someone is listening; the
    // non-observing batch path allocates nothing per worker.
    std::vector<obs::Session> workerSessions(observing ? workers : 0);
    for (std::size_t w = 0; w < workerSessions.size(); w++) {
        workerSessions[w].threadId = static_cast<int>(w) + 1;
        workerSessions[w].tracer = parent->tracer;
        workerSessions[w].enableWithOrigin(parent->origin());
    }

    std::atomic<std::size_t> next{0};
    std::vector<std::exception_ptr> errors(n);

    {
        ThreadPool pool(workers);
        for (std::size_t w = 0; w < workers; w++) {
            pool.submit([&, w] {
                obs::Session *mine =
                    observing ? &workerSessions[w] : nullptr;
                obs::ScopedSession bind(mine);
                for (;;) {
                    std::size_t start = next.fetch_add(
                        chunk, std::memory_order_relaxed);
                    if (start >= n)
                        return;
                    std::size_t end = std::min(start + chunk, n);
                    for (std::size_t i = start; i < end; i++) {
                        try {
                            body(i);
                        } catch (...) {
                            errors[i] = std::current_exception();
                        }
                    }
                }
            });
        }
        pool.wait();
    }

    if (observing) {
        for (obs::Session &session : workerSessions) {
            session.disable();
            parent->metrics.mergeFrom(session.metrics);
        }
    }

    for (const std::exception_ptr &error : errors) {
        if (error)
            std::rethrow_exception(error);
    }
}

} // namespace mixedproxy::runtime
