/**
 * @file
 * Streaming trace-conformance throughput.
 *
 * The streaming checker exists so million-event executions — far past
 * what the exhaustive axiomatic checker can enumerate — can still be
 * validated against the PTX axioms. This bench measures events/sec on
 * 1M-event traces in Release, and shows that the live window the
 * checker keeps stays orders of magnitude below the event count (peak
 * live writes vs. events processed), so memory is bounded by the
 * window, not the trace.
 *
 * Two synthetic workloads, both conformant by construction:
 *  - private: T threads round-robin over per-thread location sets
 *    (store, commit, load-back), filling all T windows at once; it
 *    exercises the retirement path and has no SC fences.
 *  - fenced: message passing between thread pairs with one SC fence
 *    per four events; live writes and live fences both outgrow the
 *    window, so it exercises fence-SC bookkeeping and fence retirement.
 */

#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include <benchmark/benchmark.h>

#include "bench_common.hh"
#include "conform/checker.hh"
#include "conform/trace.hh"
#include "litmus/types.hh"
#include "obs/obs.hh"
#include "obs/report.hh"

using namespace mixedproxy;
using namespace mixedproxy::bench;

namespace {

/**
 * Build a conformant synthetic trace with ~@p events events: @p
 * threads threads round-robin over @p locsPerThread private locations,
 * each turn emitting st + commit + ld-back (all relaxed/generic, GPU
 * scope). Private locations mean no cross-thread rf/coherence edges,
 * so the trace is conformant for every interleaving the round-robin
 * produces; the per-location commit streams still grow without bound,
 * which is exactly what forces the checker's window retirement.
 */
std::string
syntheticTrace(std::size_t events, std::size_t threads = 4,
               std::size_t locsPerThread = 2)
{
    std::ostringstream out;
    conform::TraceWriter writer(out);

    conform::TraceHeader header;
    header.test = "synthetic_" + std::to_string(events);
    const std::size_t nLocs = threads * locsPerThread;
    for (std::size_t t = 0; t < threads; t++)
        header.threads.push_back(
            {"t" + std::to_string(t), static_cast<int>(t), 0});
    for (std::size_t l = 0; l < nLocs; l++)
        header.locations.push_back({"x" + std::to_string(l), 0});
    writer.header(header);

    std::vector<std::uint64_t> value(nLocs, 0);
    litmus::Outcome outcome;
    std::size_t emitted = 0;
    for (std::size_t turn = 0; emitted + 3 <= events; turn++) {
        const std::size_t t = turn % threads;
        const std::size_t l =
            t * locsPerThread + (turn / threads) % locsPerThread;
        const std::uint64_t v = ++value[l];
        const std::uint64_t uid = writer.store(
            t, l, v, litmus::Semantics::Weak, litmus::Scope::Gpu,
            litmus::ProxyKind::Generic);
        writer.commit(uid);
        writer.load(t, l, v, uid, litmus::Semantics::Weak,
                    litmus::Scope::Gpu, litmus::ProxyKind::Generic,
                    "");
        emitted += 3;
    }
    for (std::size_t l = 0; l < nLocs; l++)
        outcome.memory[header.locations[l].name] = value[l];
    writer.finish(outcome);
    return out.str();
}

/**
 * Build a conformant message-passing trace with ~@p events events: per
 * turn a writer stores data, issues an SC fence and stores a release
 * flag; a different reader acquires the flag, issues an SC fence and
 * loads the data. Every load reads the latest commit, so the trace is
 * sequentially consistent; one event in four is an SC fence.
 */
std::string
fencedTrace(std::size_t events, std::size_t threads = 4,
            std::size_t pairs = 4)
{
    std::ostringstream out;
    conform::TraceWriter writer(out);

    conform::TraceHeader header;
    header.test = "fenced_" + std::to_string(events);
    for (std::size_t t = 0; t < threads; t++)
        header.threads.push_back(
            {"t" + std::to_string(t), static_cast<int>(t), 0});
    for (std::size_t p = 0; p < pairs; p++) {
        header.locations.push_back({"d" + std::to_string(p), 0});
        header.locations.push_back({"f" + std::to_string(p), 0});
    }
    writer.header(header);

    using litmus::ProxyKind;
    using litmus::Scope;
    using litmus::Semantics;
    std::vector<std::uint64_t> value(2 * pairs, 0);
    std::vector<std::uint64_t> latest(2 * pairs);
    for (std::size_t l = 0; l < latest.size(); l++)
        latest[l] = l; // the init writes
    auto storeCommit = [&](std::size_t t, std::size_t l, Semantics sem) {
        latest[l] = writer.store(t, l, ++value[l], sem, Scope::Gpu,
                                 ProxyKind::Generic);
        writer.commit(latest[l]);
    };
    std::size_t emitted = 0;
    for (std::size_t turn = 0; emitted + 8 <= events; turn++) {
        const std::size_t w = turn % threads;
        const std::size_t r =
            (w + 1 + (turn / threads) % (threads - 1)) % threads;
        const std::size_t data = 2 * ((turn / 3) % pairs);
        const std::size_t flag = data + 1;
        storeCommit(w, data, Semantics::Weak);
        writer.fence(w, Semantics::Sc, Scope::Gpu);
        storeCommit(w, flag, Semantics::Release);
        writer.load(r, flag, value[flag], latest[flag],
                    Semantics::Acquire, Scope::Gpu, ProxyKind::Generic,
                    "");
        writer.fence(r, Semantics::Sc, Scope::Gpu);
        writer.load(r, data, value[data], latest[data], Semantics::Weak,
                    Scope::None, ProxyKind::Generic, "");
        emitted += 8;
    }
    litmus::Outcome outcome;
    for (std::size_t l = 0; l < value.size(); l++)
        outcome.memory[header.locations[l].name] = value[l];
    writer.finish(outcome);
    return out.str();
}

struct Run
{
    double ms = 0.0;
    conform::ConformStats stats;
};

/** Check @p trace once; wall ms plus the checker's own stats. */
Run
checkOnce(const std::string &trace, std::size_t window = 1024)
{
    conform::ConformOptions opts;
    opts.window = window;
    std::istringstream in(trace);
    auto begin = std::chrono::steady_clock::now();
    conform::ConformReport report = conform::checkTrace(in, opts);
    auto end = std::chrono::steady_clock::now();
    if (!report.conformant())
        std::fprintf(stderr, "BUG: synthetic trace nonconformant:\n%s",
                     report.summary().c_str());
    benchmark::DoNotOptimize(report.stats.events);
    return {std::chrono::duration<double, std::milli>(end - begin)
                .count(),
            report.stats};
}

/** Best-of-3 wall time (the machine is noisy; min is the estimator). */
Run
checkBest(const std::string &trace, std::size_t window = 1024)
{
    Run best = checkOnce(trace, window);
    for (int i = 0; i < 2; i++) {
        Run run = checkOnce(trace, window);
        if (run.ms < best.ms)
            best = run;
    }
    return best;
}

double
eventsPerSec(const Run &run)
{
    return run.ms > 0.0
               ? static_cast<double>(run.stats.events) * 1e3 / run.ms
               : 0.0;
}

void
printThroughputTable()
{
    banner("Streaming conformance: events/sec and window residency",
           "million-event traces, private and fence-heavy, check in "
           "window-bounded memory");

    std::printf("%-9s %-10s %-10s %-12s %-10s %-12s %-10s\n", "traffic",
                "events", "wall ms", "events/sec", "fences",
                "peak window", "retired");
    rule();
    for (bool fenced : {false, true}) {
        for (std::size_t events :
             {std::size_t{10'000}, std::size_t{100'000},
              std::size_t{1'000'000}}) {
            Run run = checkBest(fenced ? fencedTrace(events)
                                       : syntheticTrace(events));
            std::printf(
                "%-9s %-10zu %-10.1f %-12.0f %-10llu %-12zu %-10llu\n",
                fenced ? "fenced" : "private", events, run.ms,
                eventsPerSec(run),
                static_cast<unsigned long long>(run.stats.fences),
                run.stats.peakWindow,
                static_cast<unsigned long long>(
                    run.stats.retiredWrites));
        }
    }
    rule();
    std::printf("\n");
}

void
printWindowTable()
{
    banner("Window capacity vs. memory: 1M events at varying windows",
           "peak live writes track the configured window, not the "
           "trace length");

    // Single runs: this table is about residency (peak/retired, which
    // are deterministic), not timing, and per-event cost grows with
    // the live window, so repeated large-window sweeps get expensive.
    const std::string trace = syntheticTrace(1'000'000);
    std::printf("%-10s %-10s %-14s %-14s\n", "window", "wall ms",
                "peak window", "retired");
    rule();
    for (std::size_t window : {std::size_t{64}, std::size_t{256},
                               std::size_t{1024}}) {
        Run run = checkOnce(trace, window);
        std::printf("%-10zu %-10.1f %-14zu %-14llu\n", window, run.ms,
                    run.stats.peakWindow,
                    static_cast<unsigned long long>(
                        run.stats.retiredWrites));
    }
    rule();
    std::printf("\n");
}

/**
 * Record the headline gauges into bench/results/ (perfcmp tracks them
 * across PRs). The obs session also captures the checker's own
 * conform.* counters and the conform.window.peak gauge.
 */
void
writeStatsJson()
{
#ifdef MIXEDPROXY_BENCH_RESULTS_DIR
    const std::filesystem::path dir = MIXEDPROXY_BENCH_RESULTS_DIR;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        std::fprintf(stderr, "cannot create %s: %s\n",
                     dir.string().c_str(), ec.message().c_str());
        return;
    }

    obs::Session session;
    session.enable();
    {
        obs::ScopedSession bind(&session);
        Run run = checkBest(syntheticTrace(1'000'000));
        obs::gauge("trace_conform.events_per_sec", eventsPerSec(run));
        obs::gauge("trace_conform.wall_ms.1m_events", run.ms);
        obs::gauge("trace_conform.peak_window",
                   static_cast<double>(run.stats.peakWindow));
        Run fenced = checkBest(fencedTrace(1'000'000));
        obs::gauge("trace_conform.fenced.events_per_sec",
                   eventsPerSec(fenced));
        obs::gauge("trace_conform.fenced.wall_ms.1m_events", fenced.ms);
        obs::gauge("trace_conform.fenced.peak_window",
                   static_cast<double>(fenced.stats.peakWindow));
    }
    session.disable();

    std::map<std::string, std::string> meta;
    meta["bench"] = "trace_conform";
    meta["workload"] =
        "private_and_fenced_1m_events_4t_window1024_bestof3";
    const std::filesystem::path path = dir / "trace_conform.stats.json";
    std::ofstream out(path);
    if (out) {
        out << obs::statsJson(session.metrics, meta);
        std::printf("wrote %s\n\n", path.string().c_str());
    } else {
        std::fprintf(stderr, "cannot write %s\n",
                     path.string().c_str());
    }
#endif
}

void
BM_CheckSyntheticTrace(benchmark::State &state)
{
    const std::string trace =
        syntheticTrace(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        conform::ConformOptions opts;
        std::istringstream in(trace);
        benchmark::DoNotOptimize(
            conform::checkTrace(in, opts).stats.events);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CheckSyntheticTrace)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Unit(benchmark::kMillisecond);

void
BM_CheckFencedTrace(benchmark::State &state)
{
    const std::string trace =
        fencedTrace(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        conform::ConformOptions opts;
        std::istringstream in(trace);
        benchmark::DoNotOptimize(
            conform::checkTrace(in, opts).stats.events);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CheckFencedTrace)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Unit(benchmark::kMillisecond);

void
BM_SyntheticTraceWrite(benchmark::State &state)
{
    for (auto _ : state)
        benchmark::DoNotOptimize(
            syntheticTrace(static_cast<std::size_t>(state.range(0)))
                .size());
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SyntheticTraceWrite)
    ->Arg(100'000)
    ->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    printThroughputTable();
    printWindowTable();
    writeStatsJson();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
