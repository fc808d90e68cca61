/**
 * @file
 * Exhaustive schedule exploration: exact operational outcome sets,
 * checked against the axiomatic model and the SC reference.
 */

#include <gtest/gtest.h>

#include "litmus/registry.hh"
#include "microarch/explore.hh"
#include "microarch/simulator.hh"
#include "model/checker.hh"
#include "model/sc.hh"
#include "relation/error.hh"

namespace {

using namespace mixedproxy;
using namespace mixedproxy::microarch;

TEST(Explore, Fig4ExactOutcomeSet)
{
    const auto &test = litmus::testByName("fig4_const_alias_nofence");
    auto result = exploreAllSchedules(test);
    // Exactly the stale and fresh reads, nothing else.
    ASSERT_EQ(result.outcomes.size(), 2u);
    for (const auto &outcome : result.outcomes) {
        EXPECT_TRUE(outcome.reg("t0", "r1") == 0 ||
                    outcome.reg("t0", "r1") == 42);
        EXPECT_EQ(outcome.mem("global_ptr"), 42u);
    }
    EXPECT_GT(result.schedules, 1u);
}

TEST(Explore, ProxyFenceCollapsesToOneOutcome)
{
    const auto &test =
        litmus::testByName("fig4_const_alias_proxy_fence");
    auto result = exploreAllSchedules(test);
    ASSERT_EQ(result.outcomes.size(), 1u);
    EXPECT_EQ(result.outcomes.begin()->reg("t0", "r1"), 42u);
}

TEST(Explore, GuardTrips)
{
    const auto &test = litmus::testByName("fig2_iriw_weak");
    EXPECT_THROW(exploreAllSchedules(test, CoherenceMode::Proxy, 10),
                 FatalError);
}

// Exact operational soundness: on small tests, the machine's entire
// outcome set is inside the model's allowed set — no sampling gap.
class ExactSoundness : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ExactSoundness, ExactOutcomesSubsetOfModel)
{
    const auto &test = litmus::testByName(GetParam());
    model::CheckOptions opts;
    opts.collectWitnesses = false;
    auto allowed = model::Checker(opts).check(test).outcomes;
    auto result = exploreAllSchedules(test);
    for (const auto &outcome : result.outcomes) {
        EXPECT_TRUE(allowed.count(outcome))
            << test.name()
            << ": machine outcome not allowed: " << outcome.toString();
    }
}

// The same sweep also cross-validates three independent components:
// the fully coherent machine explored exhaustively must produce
// exactly the SC reference executor's outcome set.
TEST_P(ExactSoundness, CoherentMachineEqualsScReference)
{
    const auto &test = litmus::testByName(GetParam());
    auto coherent =
        exploreAllSchedules(test, CoherenceMode::FullyCoherent);
    auto sc = model::scOutcomes(
        model::Program(test, model::ProxyMode::Ptx75));
    EXPECT_EQ(coherent.outcomes, sc) << test.name();
}

namespace {

/** Small tests only: exploration is exponential in action count. */
std::vector<std::string>
smallTestNames()
{
    std::vector<std::string> out;
    for (const auto &test : litmus::allTests()) {
        if (test.instructionCount() <= 5 &&
            test.threads().size() <= 2) {
            out.push_back(test.name());
        }
    }
    return out;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(
    SmallRegistry, ExactSoundness,
    ::testing::ValuesIn(smallTestNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(Explore, RandomSamplingIsSubsetOfExhaustive)
{
    const auto &test = litmus::testByName("fig8c_two_thread_constant");
    auto exhaustive = exploreAllSchedules(test);
    microarch::SimOptions opts;
    opts.iterations = 300;
    auto sampled = microarch::Simulator(opts).run(test);
    for (const auto &[outcome, count] : sampled.histogram) {
        EXPECT_TRUE(exhaustive.outcomes.count(outcome))
            << outcome.toString();
    }
}

} // namespace

namespace {

using mixedproxy::microarch::exploreAllSchedules;

TEST(Coverage, SamplingConvergesToExhaustiveSet)
{
    const auto &test = mixedproxy::litmus::testByName(
        "fig4_const_alias_nofence");
    auto exact = exploreAllSchedules(test).outcomes;
    mixedproxy::microarch::SimOptions opts;
    opts.iterations = 500;
    auto sampled = mixedproxy::microarch::Simulator(opts).run(test);
    EXPECT_EQ(sampled.histogram.size(), exact.size());
    for (const auto &outcome : exact)
        EXPECT_TRUE(sampled.histogram.count(outcome)) << outcome.toString();
}

TEST(Coverage, PartialCoverageIsFractional)
{
    const auto &test = mixedproxy::litmus::testByName(
        "fig4_const_alias_nofence");
    auto exact = exploreAllSchedules(test).outcomes;
    ASSERT_EQ(exact.size(), 2u);
    mixedproxy::microarch::SimOptions opts;
    opts.iterations = 1; // one schedule can only see one outcome
    auto sampled = mixedproxy::microarch::Simulator(opts).run(test);
    ASSERT_EQ(sampled.histogram.size(), 1u);
    EXPECT_TRUE(exact.count(sampled.histogram.begin()->first));
}

} // namespace
