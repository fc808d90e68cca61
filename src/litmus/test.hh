/**
 * @file
 * The litmus-test AST: threads placed in CTAs/GPUs, an address map with
 * virtual aliasing, initial memory values, and outcome assertions.
 */

#ifndef MIXEDPROXY_LITMUS_TEST_HH
#define MIXEDPROXY_LITMUS_TEST_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "litmus/expr.hh"
#include "litmus/instruction.hh"

namespace mixedproxy::litmus {

/** One litmus thread: a name, a CTA/GPU placement, and its program. */
struct Thread
{
    std::string name;
    int cta = 0;
    int gpu = 0;
    std::vector<Instruction> instructions;
};

/** The verdict an assertion demands over the set of allowed outcomes. */
enum class AssertKind {
    Require, ///< every allowed outcome satisfies the condition
    Permit,  ///< some allowed outcome satisfies the condition
    Forbid,  ///< no allowed outcome satisfies the condition
};

/** An outcome assertion attached to a litmus test. */
struct Assertion
{
    AssertKind kind = AssertKind::Require;
    ExprPtr condition;
    std::string text; ///< original condition text, for reporting
};

std::string toString(AssertKind kind);

/**
 * A complete litmus test.
 *
 * Virtual addresses are symbolic names; `addAlias` maps several virtual
 * addresses onto one physical location. Unaliased addresses each denote
 * their own location (named after the address).
 */
class LitmusTest
{
  public:
    explicit LitmusTest(std::string name = "unnamed");

    const std::string &name() const { return _name; }
    void setName(std::string name) { _name = std::move(name); }

    /** Threads in declaration order. */
    const std::vector<Thread> &threads() const { return _threads; }

    /** Append a thread; returns its index. */
    std::size_t addThread(Thread thread);

    /**
     * Declare that virtual address @p va denotes the same physical
     * location as @p canonical (which may itself be an alias).
     */
    void addAlias(const std::string &va, const std::string &canonical);

    /**
     * Physical location denoted by virtual address @p va. Unaliased
     * addresses map to themselves.
     */
    std::string locationOf(const std::string &va) const;

    /** All physical locations referenced by the test, sorted. */
    std::vector<std::string> locations() const;

    /** All virtual addresses mapping to @p location, sorted. */
    std::vector<std::string>
    addressesOf(const std::string &location) const;

    /** Set the initial value of the location of @p va (default 0). */
    void setInit(const std::string &va, std::uint64_t value);

    /** Initial value of physical location @p location. */
    std::uint64_t initOf(const std::string &location) const;

    /** Attach an assertion. */
    void addAssertion(AssertKind kind, const std::string &condition);

    const std::vector<Assertion> &assertions() const { return _assertions; }

    /**
     * Check structural well-formedness: nonempty, unique thread names,
     * consistent CTA-to-GPU placement, registers written exactly once and
     * defined before use, no stores to read-only proxies.
     *
     * @throws FatalError describing the first problem found.
     */
    void validate() const;

    /** Total instruction count across threads. */
    std::size_t instructionCount() const;

    /** Render the whole test in the text litmus format. */
    std::string toString() const;

  private:
    std::string _name;
    std::vector<Thread> _threads;
    std::map<std::string, std::string> aliasTo; ///< va -> canonical va
    std::map<std::string, std::uint64_t> initValues; ///< by location
    std::vector<Assertion> _assertions;

    /**
     * Memoized "validate() passed" verdict, cleared by every structural
     * mutator. The checker validates the test once per Program it
     * expands, and synthesis expands thousands of already-validated
     * tests — re-walking every instruction's register discipline each
     * time was pure overhead.
     */
    mutable bool _validated = false;
};

/**
 * Fluent builder for constructing litmus tests programmatically.
 *
 * @code
 * auto test = LitmusBuilder("mp")
 *     .thread("t0", 0, 0, {"st.global.u32 [x], 1",
 *                          "st.release.gpu.u32 [f], 1"})
 *     .thread("t1", 1, 0, {"ld.acquire.gpu.u32 r0, [f]",
 *                          "ld.global.u32 r1, [x]"})
 *     .require("!(t1.r0 == 1) || t1.r1 == 1")
 *     .build();
 * @endcode
 */
class LitmusBuilder
{
  public:
    explicit LitmusBuilder(std::string name);

    /** Declare @p va as an alias of @p canonical. */
    LitmusBuilder &alias(const std::string &va,
                         const std::string &canonical);

    /** Set an initial value. */
    LitmusBuilder &init(const std::string &va, std::uint64_t value);

    /** Add a thread with instruction strings (decoded immediately). */
    LitmusBuilder &thread(const std::string &name, int cta, int gpu,
                          const std::vector<std::string> &instructions);

    LitmusBuilder &require(const std::string &condition);
    LitmusBuilder &permit(const std::string &condition);
    LitmusBuilder &forbid(const std::string &condition);

    /** Validate and return the finished test. */
    LitmusTest build() const;

  private:
    LitmusTest test;
};

} // namespace mixedproxy::litmus

#endif // MIXEDPROXY_LITMUS_TEST_HH
