#include "driver.hh"

#include <charconv>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>

#include "analysis/analyzer.hh"
#include "conform/checker.hh"
#include "engine/engine.hh"
#include "engine/service.hh"
#include "litmus/parser.hh"
#include "litmus/registry.hh"
#include "microarch/simulator.hh"
#include "obs/obs.hh"
#include "obs/report.hh"
#include "relation/error.hh"
#include "runtime/parallel.hh"
#include "synth/generator.hh"
#include "synth/shrink.hh"

namespace mixedproxy::nvlitmus {

std::string
usage()
{
    return R"(nvlitmus - PTX mixed-proxy memory model litmus checker

usage: nvlitmus [options] <input>...

inputs:
  <path>           a litmus file in the plain-text format
  <name>           the name of a built-in test (see --list)
  -                read a litmus test from stdin

options:
  --model MODEL    ptx75 (default, proxy-aware) or ptx60 (baseline)
  --compare        check under both models and show the difference
  --witness        print one witness execution per allowed outcome
  --dot            emit a graphviz digraph per allowed outcome (pipe
                   through `dot -Tsvg` for the NVLitmus-style diagram)
  --simulate[=N]   also run N randomized schedules on the operational
                   GPU machine (default 2000)
  --sim-mode MODE  proxy (default), coherent, or fence-reuse
  --list           list the built-in litmus tests
  --all            check every built-in test and print a verdict table
  --synth=N        synthesize and classify all N-instruction litmus
                   tests (paper Section 6.3); prints the report and a
                   sample of the proxy-sensitive tests found
  --synth-out=DIR  with --synth: also write every interesting test as a
                   .litmus file under DIR (the comprehensive-suite
                   artifact)
  --shrink COND    instead of checking, minimize each input while the
                   PTX 7.5 model still admits an outcome satisfying
                   COND, and print the minimized test
  --lint           also run the static mixed-proxy analyzer and append
                   its findings (race candidates, useless fences,
                   unread registers) to each report
  --lint-only      run only the static analyzer: no exhaustive
                   checking; exit 0 when every input is clean, 1 when
                   any warning or error fired
  --presolve[=MODE]
                   run the static pre-solver before enumeration
                   (docs/static_solver.md). MODE: on (discharge
                   statically when possible, fall back to enumeration
                   otherwise — always exact; the default when =MODE is
                   omitted), off (plain enumeration, the default), or
                   only (static verdicts only, never enumerate;
                   inconclusive assertions report failed)
  --presolve-diff  differential soundness harness: for every input
                   (default: every built-in test), compare the
                   pre-solver's conclusive verdicts against full
                   enumeration; prints a per-test table and exits 0
                   only on zero disagreements
  --jobs N         check batch inputs (--all, multiple inputs, --synth,
                   --lint-only, --conform) on N worker threads; output
                   and --stats-json are identical for any N (default 1)

trace conformance (docs/trace_conformance.md):
  --conform FILE   check a recorded mixedproxy.trace.v1 execution
                   trace with the streaming conformance checker
                   instead of checking litmus programs; repeat the
                   flag to check a batch (sharded over --jobs, output
                   identical for any N). Exit 0 when every trace is
                   conformant, 1 otherwise
  --conform-window N
                   live-window capacity per location (and SC fences)
                   for --conform, 2 to 16384; smaller windows bound
                   memory but let older evidence escape (default 1024)
  --sim-trace-out FILE
                   record one simulated schedule of the single input
                   test as a mixedproxy.trace.v1 stream into FILE
                   (honors --sim-mode) and skip checking; the file can
                   be piped straight back into --conform

service mode and verdict cache (docs/service.md):
  --serve          run as a daemon: read one JSON request per line on
                   stdin, write one JSON response per line on stdout
                   (in request order), until EOF or {"cmd":"shutdown"}
  --serve-socket PATH
                   like --serve, over a Unix-domain socket at PATH
                   (connections served until a shutdown request)
  --cache-dir DIR  persist verdicts to DIR (content-addressed JSON
                   files); a later run with the same DIR answers
                   repeated checks from disk
  --cache-size N   in-memory verdict-cache capacity in entries
                   (default 4096)
  --no-cache       disable verdict memoization entirely

observability (docs/observability.md):
  --timing         print a per-phase wall-time table and the metric
                   counters on stderr after the run
  --trace-out FILE write a Chrome trace_event JSON file covering the
                   whole run (open in chrome://tracing or Perfetto)
  --stats-json FILE
                   write the structured metrics report (counters,
                   gauges, timer histograms, enum_profile) as JSON
  --profile-enum   print the enumeration profiler table (rejections
                   by axiom, candidates by rf depth, branching factors)
                   on stderr after the run; the same counters appear
                   in --stats-json regardless
  --metrics-out FILE
                   write the run's metrics in Prometheus text
                   exposition format (includes build provenance)
  --log-json FILE  with --serve: append one structured JSONL record
                   per request lifecycle event (mixedproxy.log.v1)

  --help, -h       show this text

Misspelled or unknown options (anything starting with '-' other than
the flags above and the bare '-' stdin input) are usage errors.

exit status: 0 all assertions passed, 1 some assertion failed,
             2 bad usage, unreadable input, or unwritable output
             (--lint-only: 0 clean, 1 findings, 2 bad usage)
)";
}

DriverOptions
parseArgs(const std::vector<std::string> &args)
{
    DriverOptions opts;
    engine::Request &request = opts.request;
    // Strict unsigned value: digits only — no sign, space or suffix —
    // and in range; anything else throws "<bad> '<value>'".
    auto count_value = [](const std::string &value,
                          const char *bad) -> std::size_t {
        std::size_t n = 0;
        const char *end = value.data() + value.size();
        auto [ptr, ec] = std::from_chars(value.data(), end, n);
        if (ec != std::errc() || ptr != end)
            fatal(bad, " '", value, "'");
        return n;
    };
    for (std::size_t i = 0; i < args.size(); i++) {
        const std::string &arg = args[i];
        // Matches "--flag VALUE" and "--flag=VALUE", and nothing else:
        // a misspelling like --modelx is a usage error below instead of
        // silently consuming the next argument (or being treated as a
        // test name).
        auto value_flag = [&](const char *flag,
                              std::string *value) -> bool {
            const std::string f(flag);
            if (arg == f) {
                if (++i >= args.size())
                    fatal(f, " requires a value");
                *value = args[i];
                return true;
            }
            if (arg.size() > f.size() + 1 &&
                arg.compare(0, f.size(), f) == 0 &&
                arg[f.size()] == '=') {
                *value = arg.substr(f.size() + 1);
                return true;
            }
            return false;
        };
        std::string value;
        if (arg == "--help" || arg == "-h") {
            opts.help = true;
        } else if (arg == "--list") {
            opts.list = true;
        } else if (arg == "--all") {
            opts.all = true;
        } else if (arg == "--compare") {
            request.check.compareModels = true;
        } else if (arg == "--witness") {
            request.check.showWitnesses = true;
        } else if (arg == "--dot") {
            request.check.dot = true;
        } else if (arg == "--timing") {
            opts.timing = true;
        } else if (arg == "--lint-only") {
            request.kind = engine::RequestKind::Lint;
        } else if (arg == "--lint") {
            request.lint.enabled = true;
        } else if (arg == "--presolve-diff") {
            opts.presolveDiff = true;
        } else if (arg == "--presolve") {
            request.check.presolve = model::PresolvePolicy::On;
        } else if (arg.rfind("--presolve=", 0) == 0) {
            value = arg.substr(11);
            if (auto policy = model::presolvePolicyFromString(value)) {
                request.check.presolve = *policy;
            } else {
                fatal("unknown presolve policy '", value,
                      "' (want off|on|only)");
            }
        } else if (arg == "--serve") {
            opts.serve = true;
        } else if (arg == "--no-cache") {
            opts.noCache = true;
        } else if (value_flag("--serve-socket", &opts.serveSocketPath)) {
            opts.serve = true;
        } else if (value_flag("--cache-dir", &opts.cacheDir)) {
        } else if (value_flag("--cache-size", &value)) {
            opts.cacheSize = count_value(value, "bad --cache-size");
        } else if (value_flag("--jobs", &value)) {
            opts.jobs = count_value(value, "bad --jobs count");
            if (opts.jobs < 1)
                fatal("--jobs must be at least 1");
        } else if (value_flag("--conform", &value)) {
            opts.conformTraces.push_back(value);
        } else if (value_flag("--conform-window", &value)) {
            request.conform.window =
                count_value(value, "bad --conform-window");
            conform::checkWindow(request.conform.window,
                                 "--conform-window");
        } else if (value_flag("--sim-trace-out", &opts.simTraceOut)) {
        } else if (value_flag("--trace-out", &opts.traceOut)) {
        } else if (value_flag("--stats-json", &opts.statsJsonOut)) {
        } else if (value_flag("--metrics-out", &opts.metricsOut)) {
        } else if (value_flag("--log-json", &opts.logJsonOut)) {
        } else if (arg == "--profile-enum") {
            opts.enumProfile = true;
        } else if (value_flag("--synth-out", &opts.synthOut)) {
        } else if (value_flag("--shrink", &opts.shrinkCondition)) {
        } else if (value_flag("--model", &value)) {
            if (value == "ptx75") {
                request.check.mode = model::ProxyMode::Ptx75;
            } else if (value == "ptx60") {
                request.check.mode = model::ProxyMode::Ptx60;
            } else {
                fatal("unknown model '", value, "'");
            }
        } else if (value_flag("--sim-mode", &value)) {
            if (value == "proxy") {
                request.sim.mode = microarch::CoherenceMode::Proxy;
            } else if (value == "coherent") {
                request.sim.mode = microarch::CoherenceMode::FullyCoherent;
            } else if (value == "fence-reuse") {
                request.sim.mode = microarch::CoherenceMode::FenceReuse;
            } else {
                fatal("unknown sim mode '", value, "'");
            }
        } else if (arg == "--synth") {
            fatal("--synth requires =N");
        } else if (arg.rfind("--synth=", 0) == 0) {
            opts.synthInstructions =
                count_value(arg.substr(8), "bad --synth count");
            if (opts.synthInstructions < 1 ||
                opts.synthInstructions > 6) {
                fatal("--synth size must be 1..6");
            }
        } else if (arg == "--simulate") {
            request.sim.enabled = true;
        } else if (arg.rfind("--simulate=", 0) == 0) {
            request.sim.enabled = true;
            request.sim.iterations =
                count_value(arg.substr(11), "bad --simulate count");
            microarch::checkIterations(request.sim.iterations,
                                       "--simulate");
        } else if (arg.size() > 1 && arg[0] == '-') {
            // "-" alone still means stdin.
            fatal("unknown option '", arg, "'");
        } else {
            opts.inputs.push_back(arg);
        }
    }
    return opts;
}

namespace {

litmus::LitmusTest
loadInput(const std::string &input)
{
    obs::Span span("parse");
    if (input == "-")
        return litmus::parseTest(litmus::readSource(std::cin));
    if (litmus::hasTest(input))
        return litmus::testByName(input);
    return litmus::parseTestFile(input);
}

/** Write @p contents to @p path; false on any I/O failure. */
bool
writeFileOrFail(const std::string &path, const std::string &contents)
{
    std::ofstream file(path);
    if (!file)
        return false;
    file << contents;
    file.flush();
    return static_cast<bool>(file);
}

engine::EngineConfig
engineConfigOf(const DriverOptions &options)
{
    engine::EngineConfig config;
    config.cacheEnabled = !options.noCache;
    config.cacheCapacity = options.cacheSize;
    config.cacheDir = options.cacheDir;
    return config;
}

/**
 * The --presolve-diff harness (docs/static_solver.md): for every test,
 * run the pre-solver alone (PresolvePolicy::Only) and full enumeration
 * (PresolvePolicy::Off), then require that every *conclusive* static
 * verdict equals the enumerated one. Budget-exceeded enumerations are
 * skipped (there is no exact verdict to compare against). Exit 0 iff
 * zero disagreements — soundness is all-or-nothing.
 */
int
runPresolveDiff(const DriverOptions &opts, engine::Engine &eng,
                const std::vector<litmus::LitmusTest> &tests,
                std::ostream &out, std::ostream &err)
{
    std::size_t total_assertions = 0;
    std::size_t conclusive = 0;
    std::size_t disagreements = 0;
    std::size_t skipped = 0;

    for (const litmus::LitmusTest &test : tests) {
        engine::Request static_only = engine::Request::forCheck(test);
        static_only.check.mode = opts.request.check.mode;
        static_only.check.presolve = model::PresolvePolicy::Only;

        engine::Request enumerated = engine::Request::forCheck(test);
        enumerated.check.mode = opts.request.check.mode;

        model::CheckResult sr, er;
        try {
            sr = eng.submit(static_only).check;
            er = eng.submit(enumerated).check;
        } catch (const FatalError &e) {
            err << "nvlitmus: " << test.name() << ": " << e.what()
                << "\n";
            return 2;
        }

        if (er.budgetExceeded) {
            out << "skip  " << test.name()
                << "  (enumeration budget exceeded)\n";
            skipped++;
            continue;
        }

        const std::size_t n = er.assertions.size();
        std::size_t test_conclusive = 0;
        bool test_agrees = true;
        for (std::size_t i = 0; i < n; i++) {
            total_assertions++;
            const bool has_static =
                sr.staticallyDischarged &&
                i < sr.staticallyDischarged->assertions.size();
            if (!has_static ||
                !sr.staticallyDischarged->assertions[i].conclusive)
                continue;
            conclusive++;
            test_conclusive++;
            const auto &v = sr.staticallyDischarged->assertions[i];
            if (v.passed != er.assertions[i].passed) {
                disagreements++;
                test_agrees = false;
                out << "DISAGREE  " << test.name() << "  assertion "
                    << i + 1 << ": static says "
                    << (v.passed ? "pass" : "fail") << " ("
                    << v.method
                    << (v.detail.empty() ? "" : ": " + v.detail)
                    << "), enumeration says "
                    << (er.assertions[i].passed ? "pass" : "fail")
                    << "\n";
            }
        }
        out << (test_agrees ? "ok   " : "FAIL ") << " " << test.name()
            << "  (" << test_conclusive << "/" << n
            << " assertions discharged)\n";
    }

    out << "presolve differential: " << tests.size() << " tests ("
        << skipped << " skipped), " << conclusive << "/"
        << total_assertions << " assertions conclusive, "
        << disagreements << " disagreements\n";
    return disagreements == 0 ? 0 : 1;
}

/** Renders one finished request's part of a batch transcript. */
using Render = std::string (*)(const engine::Request &,
                               const engine::Verdict &);

/** The full report of one request, then a blank line. */
std::string
renderWithBlankLine(const engine::Request &request,
                    const engine::Verdict &verdict)
{
    return engine::renderReport(request, verdict) + "\n";
}

/** One row of the --all verdict table (plus a failing check's summary). */
std::string
renderTableLine(const engine::Request &request,
                const engine::Verdict &verdict)
{
    std::ostringstream os;
    os << (verdict.passed() ? "PASS" : "FAIL") << "  "
       << request.test.name() << "  (" << verdict.check.outcomes.size()
       << " outcomes)\n";
    if (!verdict.passed())
        os << verdict.check.summary();
    return os.str();
}

/**
 * The one ordered batch runner behind the per-input reports,
 * --lint-only, the --all table and --conform. Every request is
 * submitted on @p jobs workers and rendered into its own slot; the
 * slots fold in index order, so the transcript is byte-identical for
 * any worker count. The first slot (in index order) whose request threw
 * prints `nvlitmus: <subject>: <error>` after the slots before it and
 * makes the exit status 2; otherwise it is 0 when every verdict
 * passed, 1 when any did not.
 */
int
runBatch(engine::Engine &eng, const std::vector<engine::Request> &requests,
         std::size_t jobs, Render render, std::ostream &out,
         std::ostream &err)
{
    struct Slot
    {
        bool passed = false;
        std::string text;
        std::string error;
    };
    std::vector<Slot> slots(requests.size());
    runtime::parallelFor(requests.size(), jobs, [&](std::size_t i) {
        try {
            engine::Verdict verdict = eng.submit(requests[i]);
            slots[i].passed = verdict.passed();
            slots[i].text = render(requests[i], verdict);
        } catch (const FatalError &e) {
            slots[i].error = e.what();
        }
    });
    bool all_passed = true;
    for (std::size_t i = 0; i < slots.size(); i++) {
        if (!slots[i].error.empty()) {
            const engine::Request &request = requests[i];
            err << "nvlitmus: "
                << (request.kind == engine::RequestKind::Conform
                        ? request.conform.path
                        : request.test.name())
                << ": " << slots[i].error << "\n";
            return 2;
        }
        out << slots[i].text;
        all_passed &= slots[i].passed;
    }
    return all_passed ? 0 : 1;
}

/** The work of runCli once options are parsed and obs is attached. */
int
runParsed(const DriverOptions &opts, engine::Engine &eng,
          std::ostream &out, std::ostream &err)
{
    if (opts.help) {
        out << usage();
        return 0;
    }
    if (!opts.logJsonOut.empty() && !opts.serve) {
        err << "nvlitmus: --log-json requires --serve\n" << usage();
        return 2;
    }
    if (opts.list) {
        for (const auto &name : litmus::testNames())
            out << name << "\n";
        return 0;
    }
    if (opts.serve) {
        engine::ServeOptions sopts;
        sopts.jobs = opts.jobs;
        sopts.socketPath = opts.serveSocketPath;
        sopts.logJsonPath = opts.logJsonOut;
        if (!sopts.socketPath.empty())
            return engine::serveSocket(eng, sopts, err);
        return engine::serve(eng, sopts, std::cin, out, err);
    }
    if (!opts.conformTraces.empty()) {
        if (!opts.inputs.empty()) {
            err << "nvlitmus: --conform takes trace files via the flag "
                   "itself, not litmus inputs\n";
            return 2;
        }
        std::vector<engine::Request> requests;
        for (const std::string &path : opts.conformTraces) {
            engine::Request request = opts.request;
            request.kind = engine::RequestKind::Conform;
            request.conform.path = path;
            requests.push_back(std::move(request));
        }
        return runBatch(eng, requests, opts.jobs, renderWithBlankLine,
                        out, err);
    }
    if (opts.synthInstructions != 0) {
        engine::Request request =
            engine::Request::forSynth(opts.synthInstructions);
        request.synth.jobs = opts.jobs;
        // The suite directory is made before any synthesis, so a bad
        // path fails fast; the tests stream into it as they classify.
        std::optional<synth::SuiteWriter> suite;
        if (!opts.synthOut.empty()) {
            try {
                suite.emplace(opts.synthOut);
            } catch (const FatalError &e) {
                err << "nvlitmus: --synth-out: " << e.what() << "\n";
                return 2;
            }
        }
        std::vector<synth::SynthesizedTest> sample;
        request.synth.sink = [&](synth::SynthesizedTest &&entry) {
            if (suite)
                suite->write(entry);
            if (entry.proxySensitive && sample.size() < 3)
                sample.push_back(std::move(entry));
        };
        engine::Verdict verdict = eng.submit(request);
        out << verdict.synth->summary() << "\n";
        if (suite) {
            out << "wrote " << suite->written() << " tests to "
                << opts.synthOut << "\n";
        }
        for (const auto &entry : sample) {
            out << "--- proxy-sensitive (" << entry.ptx60Outcomes
                << " -> " << entry.ptx75Outcomes << " outcomes) ---\n"
                << entry.test.toString() << "\n";
        }
        return 0;
    }

    std::vector<litmus::LitmusTest> tests;
    if (opts.all || (opts.presolveDiff && opts.inputs.empty())) {
        // The differential harness with no inputs sweeps the whole
        // built-in corpus — the corpus-soundness default.
        tests = litmus::allTests();
    } else {
        if (opts.inputs.empty()) {
            err << "nvlitmus: no inputs\n" << usage();
            return 2;
        }
        for (const auto &input : opts.inputs) {
            try {
                tests.push_back(loadInput(input));
            } catch (const FatalError &e) {
                err << "nvlitmus: " << input << ": " << e.what() << "\n";
                return 2;
            }
        }
    }

    if (!opts.simTraceOut.empty()) {
        // Recording replaces checking: one schedule of one test, so
        // the trace's provenance is unambiguous.
        if (tests.size() != 1) {
            err << "nvlitmus: --sim-trace-out needs exactly one input "
                   "test\n";
            return 2;
        }
        std::ofstream file(opts.simTraceOut);
        if (!file) {
            err << "nvlitmus: cannot write trace to '"
                << opts.simTraceOut << "'\n";
            return 2;
        }
        const microarch::SimOptions &sim = opts.request.sim;
        litmus::Outcome outcome;
        try {
            outcome = microarch::Simulator(sim).runTraced(tests[0],
                                                          sim.seed, file);
        } catch (const FatalError &e) {
            err << "nvlitmus: " << tests[0].name() << ": " << e.what()
                << "\n";
            return 2;
        }
        file.flush();
        if (!file) {
            err << "nvlitmus: cannot write trace to '"
                << opts.simTraceOut << "'\n";
            return 2;
        }
        out << "wrote mixedproxy.trace.v1 for " << tests[0].name()
            << " to " << opts.simTraceOut << " (outcome "
            << outcome.toString() << ")\n";
        return 0;
    }

    if (opts.presolveDiff)
        return runPresolveDiff(opts, eng, tests, out, err);

    const bool lint_only = opts.request.kind == engine::RequestKind::Lint;
    if (!opts.shrinkCondition.empty() && !lint_only) {
        for (const auto &test : tests) {
            try {
                synth::ShrinkStats stats;
                auto minimal = synth::shrink(
                    test,
                    synth::admitsPredicate(opts.shrinkCondition),
                    &stats);
                out << "=== " << test.name() << " shrunk from "
                    << test.instructionCount() << " to "
                    << minimal.instructionCount()
                    << " instructions (" << stats.candidatesTried
                    << " candidates) ===\n"
                    << minimal.toString() << "\n";
            } catch (const FatalError &e) {
                err << "nvlitmus: " << test.name() << ": " << e.what()
                    << "\n";
                return 2;
            }
        }
        return 0;
    }

    // The --all table checks every built-in under the model and
    // presolve policy alone; the other modes run the whole template.
    const bool table = opts.all && !lint_only;
    engine::Request base = opts.request;
    if (table) {
        base = engine::Request();
        base.check.mode = opts.request.check.mode;
        base.check.presolve = opts.request.check.presolve;
    }
    std::vector<engine::Request> requests(tests.size(), base);
    for (std::size_t i = 0; i < tests.size(); i++)
        requests[i].test = std::move(tests[i]);
    return runBatch(eng, requests, opts.jobs,
                    table ? renderTableLine : renderWithBlankLine, out,
                    err);
}

} // namespace

int
runCli(const std::vector<std::string> &args, std::ostream &out,
       std::ostream &err)
{
    DriverOptions opts;
    try {
        opts = parseArgs(args);
    } catch (const FatalError &e) {
        err << "nvlitmus: " << e.what() << "\n" << usage();
        return 2;
    }

    // The run's observability data lives in a session local to this
    // call (a run is a value, not a process): nothing leaks into the
    // global session, and concurrent runCli calls cannot collide.
    const bool observing = opts.timing || !opts.traceOut.empty() ||
                           !opts.statsJsonOut.empty() ||
                           opts.enumProfile ||
                           !opts.metricsOut.empty();
    obs::Session session;
    if (observing)
        session.enable();
    // --trace-out writes each span as it closes, so its file opens (or
    // the run is refused) before any work starts.
    std::ofstream traceFile;
    std::optional<obs::Tracer> tracer;
    if (!opts.traceOut.empty()) {
        traceFile.open(opts.traceOut);
        if (!traceFile) {
            err << "nvlitmus: cannot write trace to '" << opts.traceOut
                << "'\n";
            return 2;
        }
        session.tracer = &tracer.emplace(traceFile);
    }
    // One engine — and thus one verdict cache — for the whole run;
    // every batch slot and daemon request goes through it.
    engine::Engine eng(engineConfigOf(opts));
    int code;
    {
        obs::ScopedSession bind(observing ? &session : nullptr);
        code = runParsed(opts, eng, out, err);
    }

    if (observing) {
        session.disable();
        if (opts.timing)
            err << obs::timingTable(session.metrics);
        if (opts.enumProfile)
            err << obs::enumProfileTable(session.metrics);
        if (!opts.metricsOut.empty()) {
            std::map<std::string, std::string> meta;
            meta["tool"] = "nvlitmus";
            meta["model"] = model::toString(opts.request.check.mode);
            if (!writeFileOrFail(
                    opts.metricsOut,
                    obs::prometheusText(session.metrics, meta))) {
                err << "nvlitmus: cannot write metrics to '"
                    << opts.metricsOut << "'\n";
                code = 2;
            }
        }
        if (tracer && !tracer->finish()) {
            err << "nvlitmus: cannot write trace to '" << opts.traceOut
                << "'\n";
            code = 2;
        }
        if (!opts.statsJsonOut.empty()) {
            std::map<std::string, std::string> meta;
            meta["tool"] = "nvlitmus";
            meta["model"] = model::toString(opts.request.check.mode);
            if (!writeFileOrFail(
                    opts.statsJsonOut,
                    obs::statsJson(session.metrics, meta))) {
                err << "nvlitmus: cannot write stats to '"
                    << opts.statsJsonOut << "'\n";
                code = 2;
            }
        }
    }
    return code;
}

} // namespace mixedproxy::nvlitmus
