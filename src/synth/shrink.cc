#include "shrink.hh"

#include "obs/obs.hh"
#include "relation/error.hh"
#include "synth/generator.hh"
#include "synth/mutate.hh"

namespace mixedproxy::synth {

void
ShrinkStats::publish(obs::MetricsRegistry &registry) const
{
    registry.add("shrink.candidates", candidatesTried);
    registry.add("shrink.accepted", removalsAccepted);
    registry.add("shrink.rejected", removalsRejected());
}

namespace {

bool
holdsOnValid(const TestPredicate &predicate,
             const litmus::LitmusTest &candidate, ShrinkStats *stats)
{
    stats->candidatesTried++;
    try {
        candidate.validate();
        return predicate(candidate);
    } catch (const FatalError &) {
        return false;
    }
}

} // namespace

litmus::LitmusTest
shrink(const litmus::LitmusTest &test, const TestPredicate &predicate,
       ShrinkStats *stats)
{
    obs::Span span("shrink");
    ShrinkStats local;
    if (!stats)
        stats = &local; // always count, so obs can publish

    test.validate();
    if (!predicate(test)) {
        fatal("shrink: the predicate does not hold on '", test.name(),
              "' itself");
    }

    litmus::LitmusTest current = test;
    bool changed = true;
    while (changed) {
        obs::Span round("shrink.round");
        changed = false;

        // Whole threads first: the biggest cuts.
        for (std::size_t t = 0;
             !changed && current.threads().size() > 1 &&
             t < current.threads().size();
             t++) {
            auto candidate = withoutThread(current, t);
            if (holdsOnValid(predicate, candidate, stats)) {
                current = std::move(candidate);
                stats->removalsAccepted++;
                changed = true;
            }
        }

        // Then single instructions, in every position.
        for (std::size_t t = 0; !changed && t < current.threads().size();
             t++) {
            const auto &instrs = current.threads()[t].instructions;
            for (std::size_t i = 0; !changed && i < instrs.size(); i++) {
                auto candidate = withoutInstruction(current, t, i);
                if (candidate.threads().empty())
                    continue;
                if (holdsOnValid(predicate, candidate, stats)) {
                    current = std::move(candidate);
                    stats->removalsAccepted++;
                    changed = true;
                }
            }
        }
    }
    if (obs::Session *s = obs::current())
        stats->publish(s->metrics);
    return current;
}

TestPredicate
proxySensitivityPredicate()
{
    return [](const litmus::LitmusTest &candidate) {
        try {
            // A candidate too expensive to check is not proxy-sensitive:
            // "does not preserve".
            return checkBothModels(candidate).proxySensitive;
        } catch (const FatalError &) {
            return false; // malformed candidate: "does not preserve"
        }
    };
}

TestPredicate
admitsPredicate(const std::string &condition)
{
    auto expr = litmus::parseCondition(condition);
    model::CheckOptions opts;
    opts.collectWitnesses = false;
    opts.maxExecutions = kMaxExecutionsPerCheck;
    return [expr, opts](const litmus::LitmusTest &candidate) {
        try {
            auto result = model::Checker(opts).check(candidate);
            if (result.budgetExceeded)
                return false; // too expensive: "does not preserve"
            return result.admits(expr);
        } catch (const FatalError &) {
            // E.g. the condition names a register the candidate does
            // not define: "does not preserve".
            return false;
        }
    };
}

} // namespace mixedproxy::synth
