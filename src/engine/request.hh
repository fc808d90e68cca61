/**
 * @file
 * The unified request/verdict surface of the checking engine.
 *
 * Before the engine existed, every caller hand-assembled per-subsystem
 * option structs — model::CheckOptions, synth::SynthOptions,
 * microarch::SimOptions, analyzer arguments — and there was no
 * single value describing "one piece of work" that could be hashed,
 * cached, serialized, or dispatched. engine::Request is that value:
 * one litmus test (or a synthesis job) plus typed sub-blocks for each
 * concern (check / lint / sim / synth / conform). engine::Verdict is the
 * complete structured answer; rendering it to the classic CLI report
 * is a separate, pure step (engine/engine.hh renderReport), which is
 * what lets the daemon, the CLI, benches, and tests share one code
 * path.
 *
 * The sim, synth and conform blocks are the subsystems' own option
 * structs (plus an on/off bit or the trace subject), so the engine
 * hands them to microarch::Simulator, synth::Synthesizer and the
 * conformance checker as they are. Only CheckBlock is a view of its
 * own: it converts to model::CheckOptions, and the engine binds the
 * mode, witness and pre-solver fields per check.
 */

#ifndef MIXEDPROXY_ENGINE_REQUEST_HH
#define MIXEDPROXY_ENGINE_REQUEST_HH

#include <cstdint>
#include <optional>
#include <string>

#include "analysis/analyzer.hh"
#include "conform/checker.hh"
#include "engine/cache.hh"
#include "litmus/test.hh"
#include "microarch/simulator.hh"
#include "model/checker.hh"
#include "synth/generator.hh"

namespace mixedproxy::engine {

/**
 * Axiomatic-check options. Every field except collectWitnesses and
 * compareModels is part of the verdict-cache fingerprint
 * (engine/cache.hh): witness collection bypasses the cache, and a
 * comparison is just two cached lookups under different modes.
 */
struct CheckBlock
{
    model::ProxyMode mode = model::ProxyMode::Ptx75;

    /** Render one witness execution per distinct outcome. */
    bool showWitnesses = false;

    /** Render a graphviz digraph per distinct outcome. */
    bool dot = false;

    /** Also check under the other model and report the outcome delta. */
    bool compareModels = false;

    /** See model::CheckOptions::staticFastPath. */
    bool staticFastPath = true;

    /** See model::CheckOptions::maxExecutions. */
    std::uint64_t maxExecutions = 100'000'000;

    /**
     * Static pre-solver policy (model::PresolvePolicy, CLI
     * --presolve). The engine runs the check through
     * analysis::presolve::check, which puts the pre-solver in front of
     * the checker when the policy is not Off; the policy is part of the
     * cache fingerprint, and any non-Off policy bypasses the verdict
     * cache (a discharged verdict carries no outcome set to reconstruct
     * from).
     */
    model::PresolvePolicy presolve = model::PresolvePolicy::Off;

    /** Fixed single-value tag; see engine::EnumCore. */
    EnumCore enumCore = EnumCore::Incremental;

    /** Whether the checker must record witnesses (either renderer). */
    bool collectWitnesses() const { return showWitnesses || dot; }

    /** The checker's view (the policy stays here, with the engine). */
    operator model::CheckOptions() const
    {
        model::CheckOptions opts;
        opts.mode = mode;
        opts.collectWitnesses = collectWitnesses();
        opts.staticFastPath = staticFastPath;
        opts.maxExecutions = maxExecutions;
        return opts;
    }
};

/** Static-analyzer options of a check (a Lint request runs it alone). */
struct LintBlock
{
    /** Append the analyzer's findings to the verdict. */
    bool enabled = false;
};

/** Operational-simulator options, plus whether to run it at all. */
struct SimBlock : microarch::SimOptions
{
    bool enabled = false;
};

/**
 * Trace-conformance options (RequestKind::Conform; the test is
 * unused). The subject is a recorded `mixedproxy.trace.v1` stream —
 * either a file path (CLI `--conform`, daemon "path") or inline JSONL
 * text (daemon "trace"); exactly one must be set. Conformance verdicts
 * are never cached: a trace is one concrete execution, not a
 * canonicalizable program, and checking it is a single linear pass.
 */
struct ConformBlock : conform::ConformOptions
{
    /** Trace file to check ("" = use traceText). */
    std::string path;

    /** Inline trace text (used when path is empty). */
    std::string traceText;
};

/** What kind of work a Request describes. */
enum class RequestKind { Check, Lint, Synth, Conform };

/** One unit of work for the engine — the hashable, servable value. */
struct Request
{
    RequestKind kind = RequestKind::Check;

    /** The subject test (Check and Lint kinds). */
    litmus::LitmusTest test;

    CheckBlock check;
    LintBlock lint;
    SimBlock sim;

    /** The synthesis job (RequestKind::Synth; the test is unused). */
    synth::SynthOptions synth;

    ConformBlock conform;

    static Request forCheck(litmus::LitmusTest subject)
    {
        Request request;
        request.kind = RequestKind::Check;
        request.test = std::move(subject);
        return request;
    }

    static Request forLint(litmus::LitmusTest subject)
    {
        Request request;
        request.kind = RequestKind::Lint;
        request.test = std::move(subject);
        return request;
    }

    static Request forSynth(std::size_t instructions)
    {
        Request request;
        request.kind = RequestKind::Synth;
        request.synth.instructions = instructions;
        return request;
    }

    static Request forConform(std::string tracePath)
    {
        Request request;
        request.kind = RequestKind::Conform;
        request.conform.path = std::move(tracePath);
        return request;
    }
};

/** The complete structured answer to one Request. */
struct Verdict
{
    /** The axiomatic check (RequestKind::Check). */
    model::CheckResult check;

    /** The other model's result, when CheckBlock::compareModels. */
    std::optional<model::CheckResult> comparison;

    /** Analyzer findings (RequestKind::Lint, or LintBlock::enabled). */
    std::optional<analysis::AnalysisResult> lint;

    /** Simulation campaign, when SimBlock::enabled. */
    std::optional<microarch::SimResult> sim;

    /** Synthesis report (RequestKind::Synth). */
    std::optional<synth::SynthReport> synth;

    /** Trace-conformance report (RequestKind::Conform). */
    std::optional<conform::ConformReport> conform;

    /** True when the primary check was served from the verdict cache. */
    bool cacheHit = false;

    /** Same, for the comparison model's check. */
    bool comparisonCacheHit = false;

    /**
     * The request's pass/fail bit (the CLI's exit-code input): every
     * assertion passed for a check; no warning-or-above finding for a
     * lint-only request; conformant for a trace-conformance request;
     * always true for synthesis.
     */
    bool passed() const;
};

} // namespace mixedproxy::engine

#endif // MIXEDPROXY_ENGINE_REQUEST_HH
