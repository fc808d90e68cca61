/**
 * @file
 * A brute-force reference for the exhaustive checker. For a program it
 * tries every reads-from choice (the init write or any write to the
 * read's location) and, per location, every order of every subset of
 * the location's non-init writes, and judges each combination only
 * through model::evaluateCandidate — no pruning, no per-location
 * classification, no shared enumeration code. Its outcome set must
 * equal Checker's, and every witness Checker reports must itself pass
 * evaluateCandidate with the outcome it was filed under.
 *
 * The oracle runs over every built-in test under both models and over
 * every one-instruction and one-thread deletion of them
 * (synth::withoutInstruction / withoutThread), which reaches programs
 * the hand-written corpus does not.
 */

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "litmus/registry.hh"
#include "model/checker.hh"
#include "relation/error.hh"
#include "synth/mutate.hh"

namespace {

using namespace mixedproxy;
using model::CandidateExecution;
using model::CheckOptions;
using model::CheckResult;
using model::Checker;
using model::EventId;
using model::LocationId;
using model::Program;
using model::ProxyMode;

/** Every ordered subset of @p writes, the empty one included. */
std::vector<std::vector<EventId>>
orderedSubsets(const std::vector<EventId> &writes)
{
    std::vector<std::vector<EventId>> out;
    std::vector<EventId> prefix;
    std::vector<char> used(writes.size(), 0);
    std::function<void()> extend = [&]() {
        out.push_back(prefix);
        for (std::size_t i = 0; i < writes.size(); i++) {
            if (used[i])
                continue;
            used[i] = 1;
            prefix.push_back(writes[i]);
            extend();
            prefix.pop_back();
            used[i] = 0;
        }
    };
    extend();
    return out;
}

/**
 * Advance a mixed-radix counter over @p radix; false once it wraps
 * (every digit combination has been visited).
 */
bool
advance(std::vector<std::size_t> &digits,
        const std::vector<std::size_t> &radix)
{
    for (std::size_t i = 0; i < digits.size(); i++) {
        if (++digits[i] < radix[i])
            return true;
        digits[i] = 0;
    }
    return false;
}

/** The outcome set of @p program by exhaustive candidate evaluation. */
std::set<litmus::Outcome>
bruteForceOutcomes(const Program &program)
{
    const auto &events = program.events();
    const std::vector<EventId> &reads = program.reads();
    const std::size_t locations = program.locationCount();

    std::vector<std::vector<EventId>> sources(reads.size());
    for (std::size_t i = 0; i < reads.size(); i++) {
        const LocationId loc = events[reads[i]].location;
        sources[i].push_back(program.initWrite(loc));
        for (EventId w : program.writesAt(loc))
            sources[i].push_back(w);
    }
    std::vector<std::vector<std::vector<EventId>>> orders(locations);
    for (std::size_t loc = 0; loc < locations; loc++) {
        orders[loc] =
            orderedSubsets(program.writesAt(static_cast<LocationId>(loc)));
    }

    std::vector<std::size_t> radix;
    for (const auto &s : sources)
        radix.push_back(s.size());
    for (const auto &o : orders)
        radix.push_back(o.size());

    std::set<litmus::Outcome> outcomes;
    std::vector<std::size_t> digits(radix.size(), 0);
    do {
        CandidateExecution candidate;
        for (std::size_t i = 0; i < reads.size(); i++)
            candidate.sourceOf[reads[i]] = sources[i][digits[i]];
        for (std::size_t loc = 0; loc < locations; loc++) {
            candidate.coOrders[static_cast<LocationId>(loc)] =
                orders[loc][digits[reads.size() + loc]];
        }
        if (auto outcome = model::evaluateCandidate(program, candidate))
            outcomes.insert(*outcome);
    } while (advance(digits, radix));
    return outcomes;
}

/** Read a witness back into the candidate execution it depicts. */
CandidateExecution
candidateOf(const Program &program, const model::Witness &witness)
{
    CandidateExecution candidate;
    for (const auto &[w, r] : witness.rfEdges)
        candidate.sourceOf[r] = w;
    // coEdges chain each location's writes from its init write.
    std::map<EventId, EventId> next;
    for (const auto &[a, b] : witness.coEdges)
        next[a] = b;
    for (std::size_t loc = 0; loc < program.locationCount(); loc++) {
        const auto id = static_cast<LocationId>(loc);
        std::vector<EventId> &order = candidate.coOrders[id];
        for (auto it = next.find(program.initWrite(id)); it != next.end();
             it = next.find(it->second)) {
            order.push_back(it->second);
        }
    }
    return candidate;
}

/** Checker and brute force must agree on @p test under @p mode. */
void
expectAgreement(const litmus::LitmusTest &test, ProxyMode mode)
{
    const std::string ctx = test.name() + " [" + model::toString(mode) + "]";
    const Program program(test, mode);
    CheckOptions opts;
    opts.mode = mode;
    const CheckResult result = Checker(opts).check(program);
    ASSERT_FALSE(result.budgetExceeded) << ctx;

    EXPECT_EQ(result.outcomes, bruteForceOutcomes(program)) << ctx;

    ASSERT_EQ(result.witnesses.size(), result.outcomes.size()) << ctx;
    for (const auto &[outcome, witness] : result.witnesses) {
        const auto judged =
            model::evaluateCandidate(program, candidateOf(program, witness));
        ASSERT_TRUE(judged.has_value())
            << ctx << ": witness for " << outcome.toString()
            << " is not a consistent execution\n"
            << witness.toString();
        EXPECT_EQ(*judged, outcome) << ctx;
    }
}

TEST(BruteForceOracle, OrderedSubsetsCountsEveryArrangement)
{
    // sum over k of C(3,k) * k! = 1 + 3 + 6 + 6.
    EXPECT_EQ(orderedSubsets({1, 2, 3}).size(), 16u);
    EXPECT_EQ(orderedSubsets({}).size(), 1u);
}

TEST(BruteForceOracle, AgreesWithCheckerOnRegistry)
{
    for (const std::string &name : litmus::testNames()) {
        for (ProxyMode mode : {ProxyMode::Ptx60, ProxyMode::Ptx75})
            expectAgreement(litmus::testByName(name), mode);
    }
}

TEST(BruteForceOracle, AgreesWithCheckerOnDeletionVariants)
{
    std::size_t variants = 0;
    for (const std::string &name : litmus::testNames()) {
        const litmus::LitmusTest &test = litmus::testByName(name);
        std::vector<litmus::LitmusTest> mutants;
        for (std::size_t t = 0; t < test.threads().size(); t++) {
            mutants.push_back(synth::withoutThread(test, t));
            for (std::size_t i = 0;
                 i < test.threads()[t].instructions.size(); i++) {
                mutants.push_back(synth::withoutInstruction(test, t, i));
            }
        }
        for (const litmus::LitmusTest &mutant : mutants) {
            try {
                mutant.validate();
            } catch (const FatalError &) {
                continue; // e.g. a deleted load orphaned a register use
            }
            variants++;
            for (ProxyMode mode : {ProxyMode::Ptx60, ProxyMode::Ptx75})
                expectAgreement(mutant, mode);
        }
    }
    EXPECT_GT(variants, 500u);
}

} // namespace
