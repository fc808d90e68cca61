/**
 * @file
 * A litmus-test outcome: the observable result of one execution.
 *
 * An outcome consists of the final value of every destination register and
 * the final value of every memory location (the coherence-maximal write).
 * Outcomes are ordered and hashable so checkers can collect the set of
 * distinct outcomes a test admits.
 */

#ifndef MIXEDPROXY_LITMUS_OUTCOME_HH
#define MIXEDPROXY_LITMUS_OUTCOME_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

namespace mixedproxy::litmus {

/** The observable result of one litmus-test execution. */
struct Outcome
{
    /** Final register values, keyed by "thread.reg" (e.g. "t0.r3"). */
    std::map<std::string, std::uint64_t> registers;

    /** Final memory value per location name. */
    std::map<std::string, std::uint64_t> memory;

    /** Value of a register; throws FatalError if absent. */
    std::uint64_t reg(const std::string &thread,
                      const std::string &reg_name) const;

    /** Final value of a location; throws FatalError if absent. */
    std::uint64_t mem(const std::string &location) const;

    auto operator<=>(const Outcome &other) const = default;

    /** Render as "t0.r1=1 t1.r2=0 [x]=42". */
    std::string toString() const;
};

/**
 * Print toString(); gtest uses it, so a failed outcome comparison
 * shows the outcomes rather than their bytes.
 */
std::ostream &operator<<(std::ostream &os, const Outcome &outcome);

} // namespace mixedproxy::litmus

#endif // MIXEDPROXY_LITMUS_OUTCOME_HH
