/**
 * @file
 * The static axiomatic pre-solver (docs/static_solver.md).
 *
 * Given an expanded litmus program, StaticSolver attempts to discharge
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
 * when proved, and anything else is reported inconclusive — the
 * checker then falls back to full enumeration, so enabling the
 * pre-solver can never change a verdict (the differential CI job
 * asserts exactly this corpus-wide).
 */

#ifndef MIXEDPROXY_ANALYSIS_PRESOLVE_PRESOLVE_HH
#define MIXEDPROXY_ANALYSIS_PRESOLVE_PRESOLVE_HH

#include <cstdint>

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
 * The concrete model::Presolver. Stateless and thread-safe: one
 * instance can serve concurrent presolve() calls (each call works on
 * its own locals), so the engine shares a single instance across its
 * worker pool.
 */
class StaticSolver : public model::Presolver
{
  public:
    model::StaticDischarge
    presolve(const model::Program &program) const override;
};

} // namespace mixedproxy::analysis::presolve

#endif // MIXEDPROXY_ANALYSIS_PRESOLVE_PRESOLVE_HH
