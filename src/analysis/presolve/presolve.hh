/**
 * @file
 * The static axiomatic pre-solver (docs/static_solver.md).
 *
 * Given an expanded litmus program, discharge() attempts to decide
 * every assertion without enumerating candidate executions, using two
 * complementary polynomial-time arguments:
 *
 *  - Witness: construct a handful of deterministic sequentially
 *    consistent interleavings, convert each into a fully specified
 *    candidate execution (rf + per-location coherence), and have the
 *    checker's own axiom core verify it exactly
 *    (model::evaluateCandidate). A verified outcome proves what some
 *    consistent execution produces — enough to PASS a permit, FAIL a
 *    forbid, or counterexample a require.
 *
 *  - Refutation (UNSAT): enumerate the assignments of the condition's
 *    finite per-variable value domains (source-write values for
 *    registers, location-write values for final memory); for each
 *    satisfying assignment, run a constraint-propagation fixpoint that
 *    forces reads-from edges, derives the causality edges every
 *    realizing execution must contain, and kills source candidates
 *    that the Causality axiom rejects. When every satisfying
 *    assignment is refuted, no consistent execution can satisfy the
 *    condition — enough to PASS a forbid, FAIL a permit, or (dually,
 *    on the negated condition, with a witness for existence) PASS a
 *    require.
 *
 * Both arguments are sound and incomplete: verdicts are only emitted
 * when proved, and anything else is reported inconclusive — check()
 * then falls back to the checker's full enumeration, so enabling the
 * pre-solver can never change a verdict (the differential CI job
 * asserts exactly this corpus-wide).
 *
 * The pre-solver runs in front of model::Checker, never inside it:
 * check() is the one place that composes the two under a
 * model::PresolvePolicy.
 */

#ifndef MIXEDPROXY_ANALYSIS_PRESOLVE_PRESOLVE_HH
#define MIXEDPROXY_ANALYSIS_PRESOLVE_PRESOLVE_HH

#include <cstdint>

#include "litmus/test.hh"
#include "model/checker.hh"
#include "model/program.hh"

namespace mixedproxy::analysis::presolve {

/**
 * Refutation refuses conditions whose variable-domain product exceeds
 * this many assignments (it is then inconclusive for that assertion;
 * witnesses may still decide it). Right for litmus-scale inputs.
 */
inline constexpr std::uint64_t kMaxAssignments = 4096;

/**
 * Attempt to decide @p program's assertions without enumeration: one
 * verdict per assertion, in assertion order, and `discharged` only when
 * every one is conclusive (a program without assertions is never
 * discharged). Sound: a conclusive verdict equals what full enumeration
 * concludes. Pure, so concurrent calls need no synchronization.
 */
model::StaticDischarge discharge(const model::Program &program);

/**
 * Check @p test under @p options with the pre-solver in front of the
 * checker (docs/static_solver.md):
 *
 *  - Off:  model::Checker(options).check(test), nothing else.
 *  - On:   expand once ("check.expand"), run discharge() in a
 *          "check.presolve" span, and return the static verdicts when
 *          it discharges every assertion; otherwise check the expansion
 *          with the checker (one "check" span) and attach the partial
 *          provenance.
 *  - Only: the same, but an undischarged test is never enumerated: its
 *          inconclusive assertions fail with a "statically
 *          inconclusive" note and the outcome set stays empty.
 *
 * Every non-Off call counts one check.presolve.discharged or
 * check.presolve.inconclusive, and a result that skips the checker
 * still publishes its (zero) CheckStats, so --stats-json carries the
 * same keys either way.
 */
model::CheckResult check(const litmus::LitmusTest &test,
                         const model::CheckOptions &options,
                         model::PresolvePolicy policy);

} // namespace mixedproxy::analysis::presolve

#endif // MIXEDPROXY_ANALYSIS_PRESOLVE_PRESOLVE_HH
