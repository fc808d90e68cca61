/**
 * @file
 * runtime::parallelFor — deterministic data-parallel iteration with
 * per-worker observability sessions.
 *
 * The batch runtime's contract (docs/parallelism.md): for any --jobs
 * N, a parallelFor over the same inputs produces the same observable
 * results. The pieces that make that true:
 *
 *  - Results by input index. parallelFor only runs `body(i)` for
 *    every i in [0, n); callers write into slot i of a
 *    pre-sized vector and fold the slots in index order afterwards.
 *    Which worker ran which index never matters.
 *  - Per-worker obs::Session. Each worker thread records metrics into
 *    its own session (bound as the thread's current session for the
 *    duration) and writes spans through the parent's tracer under its
 *    own lane; after the barrier the worker registries are merged into
 *    the parent session in worker order via MetricsRegistry::mergeFrom.
 *    Counters and timer sample counts are additive, so the merged
 *    totals are partition-independent.
 *  - Deterministic errors. An exception thrown by body(i) is captured
 *    per index; after every index has been attempted (or skipped past
 *    a failure), the exception for the *lowest* failing index is
 *    rethrown — the same error a serial run would hit first.
 *
 * Work is dispatched by atomic draws of index runs over a fixed pool
 * of min(jobs, n) workers. jobs == 1 (or n <= 1) runs inline on the
 * calling thread with no pool, no extra session, and no merge — the
 * serial path stays exactly the pre-runtime code path.
 */

#ifndef MIXEDPROXY_RUNTIME_PARALLEL_HH
#define MIXEDPROXY_RUNTIME_PARALLEL_HH

#include <cstddef>
#include <functional>

namespace mixedproxy::runtime {

/**
 * Run body(i) for every i in [0, n), on min(jobs, n) workers; jobs <= 1
 * runs inline on the calling thread. Each parallel worker records into
 * its own session, adopting the clock origin and tracer of the calling
 * thread's bound session and merged into it after the barrier (nothing
 * is recorded when none is bound). Returns after all indices complete;
 * rethrows the lowest-index captured exception, if any.
 */
void parallelFor(std::size_t n, std::size_t jobs,
                 const std::function<void(std::size_t)> &body);

} // namespace mixedproxy::runtime

#endif // MIXEDPROXY_RUNTIME_PARALLEL_HH
