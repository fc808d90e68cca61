/**
 * @file
 * Experiment E10 (paper §6): checker and tooling performance.
 *
 * Measures the exhaustive checker's cost as a function of test size and
 * model variant, substituting for the paper's observations about the
 * cost of Alloy-based analysis. The interesting shape: candidate
 * executions (and hence wall time) grow combinatorially with the number
 * of loads and stores, which is why six-instruction tests bound the
 * synthesis flow (§6.3).
 */

#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>

#include <benchmark/benchmark.h>

#include "analysis/presolve/presolve.hh"
#include "bench_common.hh"
#include "litmus/registry.hh"
#include "litmus/test.hh"
#include "model/checker.hh"
#include "obs/obs.hh"
#include "obs/report.hh"
#include "runtime/parallel.hh"
#include "runtime/thread_pool.hh"

using namespace mixedproxy;
using namespace mixedproxy::bench;

namespace {

/** n writer/reader thread pairs hammering one location. */
litmus::LitmusTest
scalingTest(std::size_t pairs)
{
    litmus::LitmusBuilder b("scaling_" + std::to_string(pairs));
    for (std::size_t i = 0; i < pairs; i++) {
        std::string w = "w" + std::to_string(i);
        std::string r = "r" + std::to_string(i);
        b.thread(w, static_cast<int>(2 * i), 0,
                 {"st.relaxed.gpu.u32 [x], " + std::to_string(i + 1)});
        b.thread(r, static_cast<int>(2 * i + 1), 0,
                 {"ld.relaxed.gpu.u32 r1, [x]"});
    }
    b.permit("r0.r1 == 0 || r0.r1 == 1");
    return b.build();
}

void
printTable()
{
    banner("E10 / Section 6: model checking cost vs. test size",
           "candidate-execution enumeration is combinatorial in the "
           "number of memory operations");

    std::printf("%-22s %-8s %-14s %-14s %-10s\n", "test", "instrs",
                "candidates", "consistent", "ms");
    rule();
    model::CheckOptions opts;
    opts.collectWitnesses = false;
    model::Checker checker(opts);

    auto row = [&](const litmus::LitmusTest &test) {
        auto begin = std::chrono::steady_clock::now();
        auto result = checker.check(test);
        auto end = std::chrono::steady_clock::now();
        double ms =
            std::chrono::duration<double, std::milli>(end - begin)
                .count();
        std::printf("%-22s %-8zu %-14llu %-14llu %-10.2f\n",
                    test.name().c_str(), test.instructionCount(),
                    static_cast<unsigned long long>(
                        result.stats.candidateExecutions),
                    static_cast<unsigned long long>(
                        result.stats.consistentExecutions),
                    ms);
    };
    row(litmus::testByName("fig8a_alias_fence"));
    row(litmus::testByName("fig9_message_passing"));
    row(litmus::testByName("fig2_iriw_weak"));
    row(litmus::testByName("fig2_iriw_fence_sc"));
    for (std::size_t pairs = 1; pairs <= 4; pairs++)
        row(scalingTest(pairs));
    rule();
    std::printf("\n");
}

/** Check every built-in test on @p jobs worker threads; returns wall
 *  milliseconds for the whole batch. */
double
batchCheckAllTests(std::size_t jobs)
{
    const auto &tests = litmus::allTests();
    model::CheckOptions opts;
    opts.collectWitnesses = false;
    model::Checker checker(opts);
    auto begin = std::chrono::steady_clock::now();
    runtime::parallelFor(tests.size(), jobs, [&](std::size_t i) {
        benchmark::DoNotOptimize(checker.check(tests[i]).outcomes.size());
    });
    auto end = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(end - begin)
        .count();
}

/**
 * The --jobs N headline number: wall time to check the whole built-in
 * corpus at 1, 2, and 4 worker threads. Work items are independent
 * checker runs, so throughput should scale with physical cores (the
 * per-jobs wall times also land in checker_perf.stats.json as
 * batch.jobs.N.wall_ms gauges).
 */
void
printBatchTable()
{
    banner("Batch throughput: built-in corpus at --jobs 1/2/4",
           "independent checker runs dispatched by runtime::parallelFor"
           "; scaling tracks physical cores");

    const std::size_t n = litmus::allTests().size();
    std::printf("hardware threads: %zu\n",
                runtime::ThreadPool::hardwareThreads());
    std::printf("%-8s %-8s %-12s %-10s\n", "jobs", "tests", "wall ms",
                "speedup");
    rule();
    double serial_ms = 0.0;
    for (std::size_t jobs : {1u, 2u, 4u}) {
        double ms = batchCheckAllTests(jobs);
        if (jobs == 1)
            serial_ms = ms;
        std::printf("%-8zu %-8zu %-12.1f %-10.2f\n", jobs, n, ms,
                    ms > 0.0 ? serial_ms / ms : 0.0);
    }
    rule();
    std::printf("\n");
}

/** One corpus sweep under a pre-solver policy: wall ms plus how many
 *  of the checks were fully discharged without enumeration. */
struct PresolveRun
{
    double ms = 0.0;
    std::size_t discharged = 0;
    std::size_t fellBack = 0;
};

PresolveRun
presolveCorpusRun(model::PresolvePolicy policy)
{
    static const analysis::presolve::StaticSolver solver;
    const auto &tests = litmus::allTests();
    model::CheckOptions opts;
    opts.collectWitnesses = false;
    opts.presolve = policy;
    if (policy != model::PresolvePolicy::Off)
        opts.presolver = &solver;
    model::Checker checker(opts);
    PresolveRun run;
    auto begin = std::chrono::steady_clock::now();
    for (const auto &test : tests) {
        auto result = checker.check(test);
        if (result.staticallyDischarged &&
            result.staticallyDischarged->discharged)
            run.discharged++;
        else
            run.fellBack++;
        benchmark::DoNotOptimize(result.outcomes.size());
    }
    auto end = std::chrono::steady_clock::now();
    run.ms = std::chrono::duration<double, std::milli>(end - begin)
                 .count();
    return run;
}

/**
 * The static pre-solver's headline numbers (docs/static_solver.md):
 * discharge rate and wall-time delta over the whole built-in corpus,
 * off vs. on. "on" is always exact (inconclusive checks fall back to
 * enumeration), so the delta is pure enumeration avoided.
 */
void
printPresolveTable()
{
    banner("Static pre-solver: corpus discharge rate and wall time",
           "presolve=on discharges checks without enumeration and "
           "falls back exactly otherwise");

    std::printf("%-10s %-8s %-12s %-10s %-12s\n", "presolve", "tests",
                "discharged", "fallback", "wall ms");
    rule();
    for (auto policy :
         {model::PresolvePolicy::Off, model::PresolvePolicy::On}) {
        auto run = presolveCorpusRun(policy);
        std::printf("%-10s %-8zu %-12zu %-10zu %-12.1f\n",
                    model::toString(policy).c_str(),
                    run.discharged + run.fellBack, run.discharged,
                    run.fellBack, run.ms);
    }
    rule();
    std::printf("\n");
}

void
BM_CheckCorpusPresolve(benchmark::State &state)
{
    const auto policy = state.range(0) == 0 ? model::PresolvePolicy::Off
                                            : model::PresolvePolicy::On;
    for (auto _ : state)
        benchmark::DoNotOptimize(presolveCorpusRun(policy).discharged);
}
BENCHMARK(BM_CheckCorpusPresolve)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void
BM_BatchCheckCorpus(benchmark::State &state)
{
    const std::size_t jobs = static_cast<std::size_t>(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(batchCheckAllTests(jobs));
    state.counters["jobs"] = static_cast<double>(jobs);
}
BENCHMARK(BM_BatchCheckCorpus)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void
BM_CheckByFigure(benchmark::State &state, const char *name)
{
    const auto &test = litmus::testByName(name);
    model::CheckOptions opts;
    opts.collectWitnesses = false;
    model::Checker checker(opts);
    for (auto _ : state)
        benchmark::DoNotOptimize(checker.check(test).outcomes.size());
}
BENCHMARK_CAPTURE(BM_CheckByFigure, mp, "fig9_message_passing");
BENCHMARK_CAPTURE(BM_CheckByFigure, iriw, "fig2_iriw_weak");
BENCHMARK_CAPTURE(BM_CheckByFigure, fig8f, "fig8f_double_fence_ordered");
BENCHMARK_CAPTURE(BM_CheckByFigure, composability,
                  "composability_two_hop");

void
BM_CheckScaling(benchmark::State &state)
{
    auto test = scalingTest(static_cast<std::size_t>(state.range(0)));
    model::CheckOptions opts;
    opts.collectWitnesses = false;
    model::Checker checker(opts);
    for (auto _ : state)
        benchmark::DoNotOptimize(checker.check(test).outcomes.size());
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CheckScaling)->DenseRange(1, 4)->Complexity();

void
BM_Ptx60VsPtx75(benchmark::State &state)
{
    const auto &test = litmus::testByName("fig8c_two_thread_constant");
    model::CheckOptions opts;
    opts.collectWitnesses = false;
    opts.mode = state.range(0) == 0 ? model::ProxyMode::Ptx60
                                    : model::ProxyMode::Ptx75;
    model::Checker checker(opts);
    for (auto _ : state)
        benchmark::DoNotOptimize(checker.check(test).outcomes.size());
}
BENCHMARK(BM_Ptx60VsPtx75)->Arg(0)->Arg(1);

/**
 * Cost of the static single-proxy fast path (analysis-informed): when
 * every access is generic and unaliased, per-candidate proxy-rule
 * evaluation is skipped entirely. Arg(1) = fast path on (default),
 * Arg(0) = forced off; scalingTest is single-proxy, so the delta is
 * pure clause-evaluation overhead.
 */
void
BM_SingleProxyFastPath(benchmark::State &state)
{
    auto test = scalingTest(3);
    model::CheckOptions opts;
    opts.collectWitnesses = false;
    opts.staticFastPath = state.range(0) != 0;
    model::Checker checker(opts);
    for (auto _ : state)
        benchmark::DoNotOptimize(checker.check(test).outcomes.size());
}
BENCHMARK(BM_SingleProxyFastPath)->Arg(0)->Arg(1);

/**
 * The same comparison isolated to the per-candidate derived-relation
 * computation (where the fast path lives): 8 threads of paired
 * release/acquire accesses over 4 locations, one fixed rf assignment.
 */
void
BM_DerivedSingleProxy(benchmark::State &state)
{
    litmus::LitmusBuilder b("derived_sp");
    for (int t = 0; t < 8; t++) {
        std::string loc = "x" + std::to_string(t % 4);
        b.thread("t" + std::to_string(t), t, 0,
                 {"st.release.gpu.u32 [" + loc + "], 1",
                  "ld.acquire.gpu.u32 r0, [" + loc + "]"});
    }
    b.permit("t0.r0 == 1");
    model::Program program(b.build(), model::ProxyMode::Ptx75);

    relation::Relation rf(program.size());
    for (auto r : program.reads())
        rf.insert(program.initWrite(program.event(r).location), r);
    std::vector<char> live(program.size(), 1);

    const bool fast = state.range(0) != 0;
    for (auto _ : state) {
        auto derived = model::computeDerived(program, rf, live, fast);
        benchmark::DoNotOptimize(derived.cause.pairCount());
    }
}
BENCHMARK(BM_DerivedSingleProxy)->Arg(0)->Arg(1);

/**
 * Disabled-instrumentation overhead, microbenchmark form: a dead
 * obs::Span must cost one predictable branch (no clock read, no
 * allocation). Observability is off by default, so this measures the
 * exact cost every instrumented hot path pays per span when nobody is
 * listening.
 *
 * This is the authoritative overhead number. Comparing whole-kernel
 * wall time across separately compiled binaries (instrumented vs. not)
 * is dominated by code-layout lottery at the ~2µs scale of
 * BM_DerivedSingleProxy — A/B floors swing ±25% from two added integer
 * stores — so the <2% budget is held by construction: one ~1ns dead
 * span plus two counter stores per computeDerived call.
 */
void
BM_ObsSpanDisabled(benchmark::State &state)
{
    for (auto _ : state) {
        obs::Span span("bench.disabled");
        benchmark::DoNotOptimize(&span);
    }
}
BENCHMARK(BM_ObsSpanDisabled);

/**
 * Disabled-instrumentation overhead, end-to-end form: the same
 * derived-relation workload as BM_DerivedSingleProxy (which itself now
 * runs the instrumented code with observability off — compare against
 * the PR 2 baseline for the <2% budget), with Arg(1) flipping the obs
 * session ON to show the enabled-path cost for contrast.
 */
void
BM_DerivedObsEnabled(benchmark::State &state)
{
    litmus::LitmusBuilder b("derived_obs");
    for (int t = 0; t < 8; t++) {
        std::string loc = "x" + std::to_string(t % 4);
        b.thread("t" + std::to_string(t), t, 0,
                 {"st.release.gpu.u32 [" + loc + "], 1",
                  "ld.acquire.gpu.u32 r0, [" + loc + "]"});
    }
    b.permit("t0.r0 == 1");
    model::Program program(b.build(), model::ProxyMode::Ptx75);

    relation::Relation rf(program.size());
    for (auto r : program.reads())
        rf.insert(program.initWrite(program.event(r).location), r);
    std::vector<char> live(program.size(), 1);

    obs::Session session;
    if (state.range(0) != 0)
        session.enable();
    obs::ScopedSession bind(session.enabled() ? &session : nullptr);
    for (auto _ : state) {
        auto derived = model::computeDerived(program, rf, live, true);
        benchmark::DoNotOptimize(derived.cause.pairCount());
    }
}
BENCHMARK(BM_DerivedObsEnabled)->Arg(0)->Arg(1);

void
BM_ProgramExpansion(benchmark::State &state)
{
    const auto &test = litmus::testByName("fig2_iriw_fence_sc");
    for (auto _ : state) {
        model::Program program(test, model::ProxyMode::Ptx75);
        benchmark::DoNotOptimize(program.size());
    }
}
BENCHMARK(BM_ProgramExpansion);

} // namespace

/**
 * Re-run the qualitative table with observability attached and write
 * the metrics as stats JSON under bench/results/, giving future PRs a
 * machine-readable perf trajectory alongside the printed numbers
 * (EXPERIMENTS.md). Overwritten each run; the history lives in git.
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
    // Measured before the session is bound so the pre-solver sweeps
    // don't perturb the checker.* counter baseline below.
    const PresolveRun presolve_off =
        presolveCorpusRun(model::PresolvePolicy::Off);
    const PresolveRun presolve_on =
        presolveCorpusRun(model::PresolvePolicy::On);

    obs::Session session;
    session.enable();
    {
        obs::ScopedSession bind(&session);
        model::CheckOptions opts;
        opts.collectWitnesses = false;
        model::Checker checker(opts);
        for (const char *name :
             {"fig8a_alias_fence", "fig9_message_passing",
              "fig2_iriw_weak", "fig2_iriw_fence_sc"}) {
            checker.check(litmus::testByName(name));
        }
        for (std::size_t pairs = 1; pairs <= 4; pairs++)
            checker.check(scalingTest(pairs));
        // Record the batch-throughput headline numbers alongside the
        // per-phase timers: wall ms for the whole built-in corpus at
        // each worker count, the artifact the --jobs acceptance rests
        // on.
        for (std::size_t jobs : {1u, 2u, 4u}) {
            obs::gauge(
                ("batch.jobs." + std::to_string(jobs) + ".wall_ms")
                    .c_str(),
                batchCheckAllTests(jobs));
        }
        obs::gauge("batch.hardware_threads",
                   static_cast<double>(
                       runtime::ThreadPool::hardwareThreads()));
        // Pre-solver headline (docs/static_solver.md): corpus wall
        // time off vs. on and the discharge rate behind the delta.
        obs::gauge("presolve.off.wall_ms", presolve_off.ms);
        obs::gauge("presolve.on.wall_ms", presolve_on.ms);
        obs::gauge("presolve.on.discharged",
                   static_cast<double>(presolve_on.discharged));
        obs::gauge("presolve.on.fallback",
                   static_cast<double>(presolve_on.fellBack));
    }
    session.disable();

    std::map<std::string, std::string> meta;
    meta["bench"] = "checker_perf";
    meta["workload"] = "fig8a+fig9+iriw2x+scaling1..4+batch_corpus";
    const std::filesystem::path path = dir / "checker_perf.stats.json";
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

int
main(int argc, char **argv)
{
    printTable();
    printBatchTable();
    printPresolveTable();
    writeStatsJson();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
