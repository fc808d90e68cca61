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
 * The driver is a thin adapter over the engine facade: parseArgs fills
 * one engine::Request template from the check, lint, sim and conform
 * flags, and every batch mode (per-input reports, --lint-only, the
 * --all table, --conform) copies it per input and runs the copies
 * through one ordered runner that calls engine::Engine::submit() and
 * renders each Verdict — the same path the --serve daemon, benches and
 * tests use, with the same verdict cache in front of the checker
 * (docs/service.md).
 */

#ifndef MIXEDPROXY_NVLITMUS_DRIVER_HH
#define MIXEDPROXY_NVLITMUS_DRIVER_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "engine/request.hh"

namespace mixedproxy::nvlitmus {

/** Parsed command line. */
struct DriverOptions
{
    /** Litmus file paths, built-in test names, or "-" for stdin. */
    std::vector<std::string> inputs;

    /**
     * The request every input is checked with. The check, lint, sim
     * and conform flags (--model, --compare, --witness, --dot,
     * --presolve, --lint, --lint-only, --simulate, --sim-mode,
     * --conform-window) parse straight into it; --lint-only makes it a
     * RequestKind::Lint request. Batch modes copy it per input and set
     * the subject. The --all table and --presolve-diff read only its
     * model and presolve policy.
     */
    engine::Request request;

    /**
     * Differential soundness harness (--presolve-diff): compare the
     * pre-solver's conclusive verdicts against full enumeration over
     * every input (default: all built-ins); exit 0 only on zero
     * disagreements.
     */
    bool presolveDiff = false;

    /**
     * Trace-conformance mode (--conform FILE, repeatable,
     * docs/trace_conformance.md): check each recorded
     * mixedproxy.trace.v1 stream with the streaming conformance
     * checker instead of checking litmus programs. Batches shard over
     * --jobs with byte-identical output for any worker count; exit 0
     * when every trace is conformant, 1 otherwise.
     */
    std::vector<std::string> conformTraces;

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

    /**
     * Observability sinks (docs/observability.md). Any of these three
     * attaches the obs session for the whole run: --timing prints the
     * per-phase wall-time table on stderr, --trace-out streams Chrome
     * trace_event JSON to its file as spans close, --stats-json writes
     * the structured metrics report.
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
