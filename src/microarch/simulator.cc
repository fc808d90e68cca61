#include "simulator.hh"

#include <random>
#include <sstream>

#include "conform/trace.hh"
#include "obs/obs.hh"
#include "relation/error.hh"

namespace mixedproxy::microarch {

namespace {

/** The shared schedule loop: drive @p machine to completion. */
void
driveSchedule(Machine &machine, const litmus::LitmusTest &test,
              std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    // A generous step bound; litmus programs finish in well under this.
    std::size_t guard = 1000 * (test.instructionCount() + 1);
    while (true) {
        auto actions = machine.actions();
        if (actions.empty()) {
            if (machine.deadlocked()) {
                panic("simulation of '", test.name(),
                      "' deadlocked (mismatched barriers?)");
            }
            break;
        }
        if (guard-- == 0)
            panic("simulation of '", test.name(), "' did not terminate");
        std::uniform_int_distribution<std::size_t> pick(
            0, actions.size() - 1);
        machine.execute(actions[pick(rng)]);
    }
}

} // namespace

std::set<litmus::Outcome>
SimResult::outcomes() const
{
    std::set<litmus::Outcome> out;
    for (const auto &[outcome, count] : histogram)
        out.insert(outcome);
    return out;
}

double
SimResult::meanLatency() const
{
    if (iterations == 0)
        return 0.0;
    return static_cast<double>(stats.totalLatency) /
           static_cast<double>(iterations);
}

double
SimResult::coverageOf(const std::set<litmus::Outcome> &reference) const
{
    if (reference.empty())
        return 1.0;
    std::size_t hit = 0;
    for (const auto &outcome : reference) {
        if (histogram.count(outcome))
            hit++;
    }
    return static_cast<double>(hit) /
           static_cast<double>(reference.size());
}

std::string
SimResult::summary() const
{
    std::ostringstream os;
    os << "simulate " << testName << " [" << toString(mode) << "]: "
       << iterations << " schedules, " << histogram.size()
       << " distinct outcome(s)\n";
    for (const auto &[outcome, count] : histogram) {
        os << "  " << count << "x  " << outcome.toString() << "\n";
    }
    os << "  mean latency " << meanLatency() << " cycles; "
       << stats.drains << " drains, " << stats.invalidatedLines
       << " invalidated lines, " << stats.translations
       << " translations\n";
    return os.str();
}

Simulator::Simulator(SimOptions options)
    : opts(std::move(options))
{}

litmus::Outcome
Simulator::runOnce(const litmus::LitmusTest &test, std::uint64_t seed,
                   MachineStats *stats_out) const
{
    obs::Span span("sim.schedule");
    Machine machine(test, opts.mode);
    driveSchedule(machine, test, seed);
    if (stats_out)
        *stats_out += machine.stats();
    return machine.outcome();
}

litmus::Outcome
Simulator::runTraced(const litmus::LitmusTest &test, std::uint64_t seed,
                     std::ostream &out, MachineStats *stats_out) const
{
    obs::Span span("sim.schedule");
    Machine machine(test, opts.mode);
    conform::TraceWriter writer(out);
    machine.setTracer(&writer);
    driveSchedule(machine, test, seed);
    if (stats_out)
        *stats_out += machine.stats();
    litmus::Outcome outcome = machine.outcome();
    writer.finish(outcome);
    return outcome;
}

SimResult
Simulator::run(const litmus::LitmusTest &test) const
{
    obs::Span span("sim");
    SimResult result;
    result.testName = test.name();
    result.mode = opts.mode;
    result.iterations = opts.iterations;
    for (std::size_t i = 0; i < opts.iterations; i++) {
        litmus::Outcome outcome =
            runOnce(test, opts.seed + i, &result.stats);
        result.histogram[outcome]++;
    }
    if (obs::Session *s = obs::current()) {
        obs::MetricsRegistry &m = s->metrics;
        m.add("sim.schedules", result.iterations);
        m.add("sim.loads", result.stats.loads);
        m.add("sim.stores", result.stats.stores);
        m.add("sim.drains", result.stats.drains);
        m.add("sim.invalidated_lines", result.stats.invalidatedLines);
        m.add("sim.translations", result.stats.translations);
        m.add("sim.fence_drains", result.stats.fenceDrains);
        m.add("sim.total_latency_cycles", result.stats.totalLatency);
        m.set("sim.distinct_outcomes",
              static_cast<double>(result.histogram.size()));
        m.set("sim.mean_latency_cycles", result.meanLatency());
    }
    return result;
}

} // namespace mixedproxy::microarch
