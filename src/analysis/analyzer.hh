/**
 * @file
 * Static mixed-proxy analyzer: lint-style diagnostics over a parsed
 * litmus test, with no execution enumeration.
 *
 * The paper's §6.2 makes two same-location accesses through different
 * proxies unordered unless an appropriate `fence.proxy` sits on the
 * base-causality path between them. That property is checkable
 * statically: build the *optimistic* base causality (program order,
 * barrier rendezvous, and every synchronizes-with edge any reads-from
 * assignment could produce) and ask whether §6.2.4's clause (3) can be
 * satisfied along it. If even the most generous causality approximation
 * carries no suitable fence chain, the pair is a race candidate and the
 * exhaustive checker is guaranteed to admit stale-value outcomes for it.
 *
 * The same machinery classifies fences that order nothing, fences
 * shadowed by adjacent stronger ones, and loads whose results nothing
 * observes. The analyzer never enumerates executions, so it runs in
 * polynomial time where the checker is combinatorial.
 */

#ifndef MIXEDPROXY_ANALYSIS_ANALYZER_HH
#define MIXEDPROXY_ANALYSIS_ANALYZER_HH

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/diagnostic.hh"
#include "litmus/test.hh"
#include "model/program.hh"

namespace mixedproxy::analysis {

/** Everything one analyzer run reports. */
struct AnalysisResult
{
    std::string testName;

    /** Findings, errors first, then warnings, then notes. */
    std::vector<Diagnostic> diagnostics;

    /**
     * The static proxy summary the checker's single-proxy fast path
     * consumes (Program::usesMixedProxies): false means every access is
     * generic and unaliased, so proxy-rule evaluation is skippable.
     */
    bool mixedProxies = false;

    /** Number of findings at exactly @p severity. */
    std::size_t count(Severity severity) const;

    /** True when nothing at Warning severity or above was found. */
    bool clean() const;

    /** Multi-line human-readable report ("" renders as "no findings"). */
    std::string render() const;
};

/**
 * Analyze a litmus test (expanded under the proxy-aware PTX 7.5 model).
 *
 * @throws FatalError if the test fails structural validation.
 */
AnalysisResult analyze(const litmus::LitmusTest &test);

/** Analyze a pre-expanded program (reuse across calls). */
AnalysisResult analyze(const model::Program &program);

} // namespace mixedproxy::analysis

#endif // MIXEDPROXY_ANALYSIS_ANALYZER_HH
