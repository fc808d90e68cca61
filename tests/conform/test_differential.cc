/**
 * @file
 * Randomized differential suite for the streaming conformance checker
 * (ISSUE 10): every trace the operational machine records for the
 * built-in corpus must check CONFORMANT, and its footer outcome must
 * be one the axiomatic model allows — the streaming verdict and the
 * batch verdict agree. Fault-injected traces (conform/fault.hh, the
 * same module tools/tracegen uses) must be flagged NONCONFORMANT with
 * the axiom the fault class targets.
 */

#include <set>
#include <sstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "conform/checker.hh"
#include "conform/fault.hh"
#include "litmus/registry.hh"
#include "microarch/simulator.hh"
#include "model/checker.hh"

namespace {

using namespace mixedproxy;

std::string
record(const litmus::LitmusTest &test, std::uint64_t seed,
       microarch::CoherenceMode mode)
{
    microarch::SimOptions opts;
    opts.mode = mode;
    std::ostringstream out;
    microarch::Simulator(opts).runTraced(test, seed, out);
    return out.str();
}

conform::ConformReport
check(const std::string &trace)
{
    std::istringstream in(trace);
    return conform::checkTrace(in);
}

/**
 * The corpus differential: for every built-in test and several seeds,
 * the recorded trace is conformant and its final state is an outcome
 * the batch checker admits. Together the two properties say the
 * streaming checker's under-approximation never convicts a legal
 * machine execution, while the machine never slips an illegal one
 * past the model.
 */
TEST(ConformDifferential, CorpusTracesConformAndAgreeWithModel)
{
    model::CheckOptions copts;
    copts.collectWitnesses = false;
    model::Checker checker(copts);

    for (const auto &test : litmus::allTests()) {
        const std::set<litmus::Outcome> allowed =
            checker.check(test).outcomes;
        for (std::uint64_t seed : {1ull, 17ull, 901ull}) {
            conform::ConformReport report = check(record(
                test, seed, microarch::CoherenceMode::Proxy));
            EXPECT_TRUE(report.conformant())
                << test.name() << " seed " << seed << "\n"
                << report.summary();
            ASSERT_TRUE(report.outcome.has_value())
                << test.name() << " seed " << seed;
            EXPECT_TRUE(allowed.count(*report.outcome))
                << test.name() << " seed " << seed << ": outcome "
                << report.outcome->toString()
                << " not allowed by the model";
        }
    }
}

/** Every machine coherence mode records conformant traces. */
TEST(ConformDifferential, AllCoherenceModesConform)
{
    for (auto mode : {microarch::CoherenceMode::Proxy,
                      microarch::CoherenceMode::FullyCoherent,
                      microarch::CoherenceMode::FenceReuse}) {
        for (const auto &test : litmus::allTests()) {
            conform::ConformReport report =
                check(record(test, 5, mode));
            EXPECT_TRUE(report.conformant())
                << test.name() << " mode "
                << microarch::toString(mode) << "\n"
                << report.summary();
        }
    }
}

/**
 * Fault injection: sweep the corpus, plant each fault class wherever
 * the trace offers a site, and require the checker to convict the
 * axiom that class targets. Floors on the injection counts keep the
 * sweep honest — a refactor that silently made every trace
 * "site-free" would otherwise pass vacuously.
 */
TEST(ConformDifferential, InjectedFaultsFlagTheTargetAxiom)
{
    // Each fault class and the violation the checker must report for it.
    using conform::FaultKind;
    using conform::ViolationKind;
    for (auto [kind, violation] :
         {std::pair{FaultKind::Drop, ViolationKind::Malformed},
          std::pair{FaultKind::Reorder, ViolationKind::Coherence},
          std::pair{FaultKind::Corrupt, ViolationKind::RfValue}}) {
        std::size_t injected = 0;
        for (const auto &test : litmus::allTests()) {
            const std::string trace =
                record(test, 11, microarch::CoherenceMode::Proxy);
            for (std::uint64_t faultSeed : {1ull, 2ull}) {
                std::optional<std::string> faulted =
                    conform::injectFault(trace, kind, faultSeed);
                if (!faulted)
                    continue;
                injected++;
                conform::ConformReport report = check(*faulted);
                EXPECT_FALSE(report.conformant())
                    << test.name() << " fault "
                    << conform::toString(kind) << " seed "
                    << faultSeed;
                const auto expected = static_cast<std::size_t>(violation);
                EXPECT_GT(report.stats.byKind[expected], 0u)
                    << test.name() << " fault "
                    << conform::toString(kind) << " seed " << faultSeed
                    << ": expected a " << conform::toString(violation)
                    << " violation\n"
                    << report.summary();
            }
        }
        // Drop/corrupt sites exist in nearly every trace; reorder
        // needs two program-ordered same-location generic stores,
        // which only the coww-style tests provide.
        const std::size_t floor =
            kind == conform::FaultKind::Reorder ? 2 : 80;
        EXPECT_GE(injected, floor)
            << "fault " << conform::toString(kind)
            << " found implausibly few injection sites";
    }
}

/** The same (trace, kind, seed) tuple always plants the same fault. */
TEST(ConformDifferential, InjectionIsDeterministic)
{
    const std::string trace =
        record(litmus::testByName("fig9_message_passing"), 7,
               microarch::CoherenceMode::Proxy);
    for (auto kind :
         {conform::FaultKind::Drop, conform::FaultKind::Corrupt}) {
        auto a = conform::injectFault(trace, kind, 3);
        auto b = conform::injectFault(trace, kind, 3);
        ASSERT_TRUE(a.has_value());
        EXPECT_EQ(*a, *b);
    }
}

} // namespace
