/**
 * @file
 * The NVLitmus front end (paper §6.3, Fig. 10).
 *
 * The paper integrated its Alloy model into a locally hosted Compiler
 * Explorer so that non-experts could write litmus tests in a stylized
 * plain-text representation and get verdicts in the browser. This
 * module provides the same experience as a library + CLI: parse a
 * litmus file (or pick a built-in test), run the axiomatic checker
 * and/or the operational simulator, and render a human-readable report.
 *
 * Since ISSUE 6 the driver is a thin adapter over the engine facade:
 * every code path builds an engine::Request, calls
 * engine::Engine::submit(), and renders the Verdict — the same path
 * the --serve daemon, benches, and tests use, with the same verdict
 * cache in front of the checker (docs/service.md).
 */

#ifndef MIXEDPROXY_NVLITMUS_DRIVER_HH
#define MIXEDPROXY_NVLITMUS_DRIVER_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "litmus/test.hh"
#include "microarch/simulator.hh"
#include "model/checker.hh"

namespace mixedproxy::nvlitmus {

/** Parsed command line. */
struct DriverOptions
{
    /** Litmus file paths, built-in test names, or "-" for stdin. */
    std::vector<std::string> inputs;

    /** Check under both PTX 7.5 and PTX 6.0 and show the delta. */
    bool compareModels = false;

    model::ProxyMode mode = model::ProxyMode::Ptx75;

    /**
     * Static pre-solver policy for checks (--presolve[=MODE],
     * docs/static_solver.md). `presolveSet` records whether the flag
     * appeared at all: synthesis pruning defaults on and is only
     * disabled by an explicit --presolve=off, while checking defaults
     * to plain enumeration unless the flag turns the pre-solver on.
     */
    model::PresolvePolicy presolve = model::PresolvePolicy::Off;
    bool presolveSet = false;

    /**
     * Differential soundness harness (--presolve-diff): compare the
     * pre-solver's conclusive verdicts against full enumeration over
     * every input (default: all built-ins); exit 0 only on zero
     * disagreements.
     */
    bool presolveDiff = false;

    /** Print one witness execution per outcome. */
    bool showWitnesses = false;

    /** Emit a graphviz digraph per allowed outcome. */
    bool dot = false;

    /** Also run the operational simulator. */
    bool simulate = false;
    std::size_t simIterations = 2000;
    microarch::CoherenceMode simMode = microarch::CoherenceMode::Proxy;

    /**
     * Trace-conformance mode (--conform FILE, repeatable,
     * docs/trace_conformance.md): check each recorded
     * mixedproxy.trace.v1 stream with the streaming conformance
     * checker instead of checking litmus programs. Batches shard over
     * --jobs with byte-identical output for any worker count; exit 0
     * when every trace is conformant, 1 otherwise.
     */
    std::vector<std::string> conformTraces;

    /** Live-window capacity for --conform (--conform-window N). */
    std::size_t conformWindow = 1024;

    /**
     * Record one simulated schedule of the (single) input test as a
     * mixedproxy.trace.v1 stream into this file (--sim-trace-out FILE;
     * "" = off). Uses --sim-mode and the simulator's base seed; the
     * recording replaces checking, so the file can be piped straight
     * back into --conform.
     */
    std::string simTraceOut;

    /** Run the litmus-test synthesizer at this size (0 = off). */
    std::size_t synthInstructions = 0;

    /** Directory to write the synthesized suite into ("" = don't). */
    std::string synthOut;

    /** Shrink inputs while preserving admission of this condition. */
    std::string shrinkCondition;

    /** Append the static analyzer's findings to each report. */
    bool lint = false;

    /**
     * Run only the static analyzer (no exhaustive checking); exit 0
     * when every input is clean, 1 when any warning or error fired.
     */
    bool lintOnly = false;

    /**
     * Observability sinks (docs/observability.md). Any of these three
     * attaches the obs session for the whole run: --timing prints the
     * per-phase wall-time table on stderr, --trace-out writes Chrome
     * trace_event JSON, --stats-json writes the structured metrics
     * report.
     */
    bool timing = false;
    std::string traceOut;
    std::string statsJsonOut;

    /**
     * Print the enumeration profiler table on stderr (--profile-enum):
     * rejections by axiom, candidates by rf depth and branching
     * factors. Attaches the obs session like the sinks above.
     */
    bool enumProfile = false;

    /**
     * Write the session's metrics in Prometheus text exposition format
     * to this file at the end of the run ("" = don't). Attaches the
     * obs session.
     */
    std::string metricsOut;

    /**
     * Structured JSONL event log for the daemon (--log-json PATH;
     * requires --serve). See docs/service.md.
     */
    std::string logJsonOut;

    /**
     * Worker threads for batch work: the --all table, multi-input
     * check/lint runs, synthesis (runtime::parallelFor), and the
     * daemon's request pool. Output is identical for any value
     * (docs/parallelism.md).
     */
    std::size_t jobs = 1;

    /**
     * Daemon mode (docs/service.md): serve line-delimited JSON
     * requests over stdin/stdout (--serve) or a Unix-domain socket
     * (--serve-socket PATH, which implies --serve).
     */
    bool serve = false;
    std::string serveSocketPath;

    /**
     * Verdict-cache knobs (docs/service.md). The in-memory cache is on
     * by default for every mode; --cache-dir adds the on-disk store
     * that survives the process, --no-cache disables memoization
     * entirely.
     */
    std::string cacheDir;
    std::size_t cacheSize = 4096;
    bool noCache = false;

    /** List built-in tests and exit. */
    bool list = false;

    /** Run every built-in test and print a verdict table. */
    bool all = false;

    /** Print this help text and exit. */
    bool help = false;
};

/**
 * Parse argv into options.
 *
 * @throws FatalError on unknown flags or malformed values.
 */
DriverOptions parseArgs(const std::vector<std::string> &args);

/** The usage text. */
std::string usage();

/**
 * Render one test's full report (check + optional simulation).
 *
 * @param passed When non-null, receives whether every assertion of
 *        the axiomatic check passed (the CLI's exit-code input).
 */
std::string report(const litmus::LitmusTest &test,
                   const DriverOptions &options,
                   bool *passed = nullptr);

/**
 * Run the front end. Reads litmus files, writes reports to @p out and
 * problems to @p err.
 *
 * @return process exit code: 0 if every assertion of every input
 *         passed, 1 on assertion failure, 2 on usage/input errors.
 */
int runCli(const std::vector<std::string> &args, std::ostream &out,
           std::ostream &err);

} // namespace mixedproxy::nvlitmus

#endif // MIXEDPROXY_NVLITMUS_DRIVER_HH
