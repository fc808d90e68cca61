#include "engine.hh"

#include <sstream>

#include "analysis/presolve/presolve.hh"
#include "engine/canonical.hh"
#include "obs/obs.hh"
#include "relation/error.hh"

namespace mixedproxy::engine {

bool
Verdict::passed() const
{
    if (synth)
        return true;
    if (conform)
        return conform->conformant();
    // A lint-only verdict carries no check (empty testName): its
    // pass/fail bit is the analyzer's cleanliness.
    if (lint && check.testName.empty())
        return lint->clean();
    return check.allPassed();
}

namespace {

VerdictCache::Config
cacheConfigOf(const EngineConfig &cfg)
{
    VerdictCache::Config cacheConfig;
    cacheConfig.capacity = cfg.cacheEnabled ? cfg.cacheCapacity : 0;
    cacheConfig.diskDir = cfg.cacheEnabled ? cfg.cacheDir : "";
    return cacheConfig;
}

} // namespace

Engine::Engine(EngineConfig config)
    : cfg(std::move(config)), verdictCache(cacheConfigOf(cfg))
{}

model::CheckResult
Engine::checkCached(const litmus::LitmusTest &test,
                    const CheckBlock &block, model::ProxyMode mode,
                    bool collectWitnesses, bool *wasHit)
{
    if (wasHit)
        *wasHit = false;

    model::CheckOptions opts = block;
    opts.mode = mode;
    opts.collectWitnesses = collectWitnesses;

    // Witness-bearing requests bypass the cache: a Witness names the
    // concrete events of this program and cannot be rename-translated.
    // Presolve-enabled requests bypass it too — a statically discharged
    // verdict carries no outcome enumeration, so there is nothing the
    // reconstruction path could translate back (the policy is still
    // part of the fingerprint, see engine/cache.hh).
    if (!cfg.cacheEnabled || collectWitnesses ||
        block.presolve != model::PresolvePolicy::Off)
        return analysis::presolve::check(test, opts, block.presolve);

    CanonicalForm form;
    try {
        form = canonicalize(test);
    } catch (const std::exception &) {
        // A test outside the canonicalizer's structural expectations
        // degrades to an uncached check, never to a failure.
        return model::Checker(opts).check(test);
    }

    const std::string key = VerdictCache::fingerprint(
        form.key, mode, block.staticFastPath, block.maxExecutions,
        block.presolve, block.enumCore);

    CachedVerdict cached = verdictCache.lookupOrCompute(
        key,
        [&]() {
            model::CheckOptions cold = opts;
            cold.collectWitnesses = false;
            model::CheckResult result =
                model::Checker(cold).check(test);
            CachedVerdict verdict;
            verdict.budgetExceeded = result.budgetExceeded;
            verdict.stats = result.stats;
            for (const litmus::Outcome &outcome : result.outcomes)
                verdict.outcomes.insert(form.toCanonical(outcome));
            return verdict;
        },
        wasHit);

    // Reconstruct in this request's namespace — the same path on hit
    // and miss, so warm output is byte-identical to cold output by
    // construction.
    model::CheckResult result;
    result.testName = test.name();
    result.mode = mode;
    result.budgetExceeded = cached.budgetExceeded;
    result.stats = cached.stats;
    for (const litmus::Outcome &outcome : cached.outcomes)
        result.outcomes.insert(form.fromCanonical(outcome));
    model::evaluateAssertions(test, result);
    return result;
}

Verdict
Engine::submit(const Request &request)
{
    obs::Span span("engine.request");

    Verdict verdict;

    if (request.kind == RequestKind::Synth) {
        verdict.synth = synth::Synthesizer(request.synth).run();
        return verdict;
    }

    if (request.kind == RequestKind::Conform) {
        if (!request.conform.path.empty()) {
            verdict.conform = conform::checkTraceFile(request.conform.path,
                                                      request.conform);
        } else {
            std::istringstream in(request.conform.traceText);
            verdict.conform = conform::checkTrace(in, request.conform);
        }
        return verdict;
    }

    if (request.kind == RequestKind::Lint) {
        verdict.lint = analysis::analyze(request.test);
        return verdict;
    }

    verdict.check = checkCached(
        request.test, request.check, request.check.mode,
        request.check.collectWitnesses(), &verdict.cacheHit);

    if (request.check.compareModels) {
        const model::ProxyMode other =
            request.check.mode == model::ProxyMode::Ptx75
                ? model::ProxyMode::Ptx60
                : model::ProxyMode::Ptx75;
        verdict.comparison =
            checkCached(request.test, request.check, other,
                        /*collectWitnesses=*/false,
                        &verdict.comparisonCacheHit);
    }

    if (request.lint.enabled)
        verdict.lint = analysis::analyze(request.test);

    if (request.sim.enabled)
        verdict.sim = microarch::Simulator(request.sim).run(request.test);

    return verdict;
}

std::string
renderReport(const Request &request, const Verdict &verdict)
{
    if (verdict.synth)
        return verdict.synth->summary();

    if (verdict.conform) {
        std::ostringstream os;
        os << "=== conform "
           << (request.conform.path.empty() ? "<inline>"
                                            : request.conform.path)
           << " ===\n"
           << verdict.conform->summary();
        return os.str();
    }

    if (request.kind == RequestKind::Lint)
        return verdict.lint->render();

    const litmus::LitmusTest &test = request.test;
    const model::CheckResult &result = verdict.check;

    std::ostringstream os;
    os << "=== " << test.name() << " ===\n";
    os << test.toString() << "\n";
    os << result.summary();

    if (request.check.showWitnesses) {
        for (const auto &[outcome, witness] : result.witnesses) {
            os << "\nwitness for " << outcome.toString() << ":\n"
               << witness.toString();
        }
    }
    if (request.check.dot) {
        std::size_t index = 0;
        for (const auto &[outcome, witness] : result.witnesses) {
            os << "\n// " << outcome.toString() << "\n"
               << witness.toDot(test.name() + "_" +
                                std::to_string(index++));
        }
    }

    if (request.check.compareModels && verdict.comparison) {
        const model::CheckResult &other = *verdict.comparison;
        os << "\ncomparison with " << model::toString(other.mode)
           << ":\n";
        bool any = false;
        for (const auto &outcome : result.outcomes) {
            if (!other.outcomes.count(outcome)) {
                os << "  only " << model::toString(result.mode) << ": "
                   << outcome.toString() << "\n";
                any = true;
            }
        }
        for (const auto &outcome : other.outcomes) {
            if (!result.outcomes.count(outcome)) {
                os << "  only " << model::toString(other.mode) << ": "
                   << outcome.toString() << "\n";
                any = true;
            }
        }
        if (!any)
            os << "  identical outcome sets\n";
    }

    if (verdict.lint)
        os << "\n" << verdict.lint->render();

    if (verdict.sim) {
        os << "\n" << verdict.sim->summary();
        // Cross-check: flag any simulated outcome the model forbids.
        for (const auto &[outcome, count] : verdict.sim->histogram) {
            if (!result.outcomes.count(outcome)) {
                os << "  WARNING: observed outcome not allowed by "
                   << model::toString(result.mode) << ": "
                   << outcome.toString() << "\n";
            }
        }
    }
    return os.str();
}

} // namespace mixedproxy::engine
