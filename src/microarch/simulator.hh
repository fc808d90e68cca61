/**
 * @file
 * The randomized litmus-test simulator driving the operational Machine.
 *
 * Each iteration picks uniformly among the machine's enabled actions
 * (thread steps and store-queue drains) with a seeded RNG, producing one
 * outcome; many iterations produce an outcome histogram. The soundness
 * property this repository verifies (DESIGN.md §4) is that every outcome
 * the simulator observes is allowed by the PTX 7.5 axiomatic model.
 */

#ifndef MIXEDPROXY_MICROARCH_SIMULATOR_HH
#define MIXEDPROXY_MICROARCH_SIMULATOR_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <set>
#include <string>

#include "litmus/outcome.hh"
#include "litmus/test.hh"
#include "microarch/machine.hh"

namespace mixedproxy::microarch {

/**
 * Most randomized schedules one campaign may run. Each is a whole
 * simulated execution, so an unbounded count lets one request hold a
 * daemon worker indefinitely; the largest count the repository uses is
 * 4000.
 */
inline constexpr std::size_t kMaxIterations = 1'000'000;

/**
 * Throw FatalError, naming the value @p what, unless @p iterations is
 * at most kMaxIterations. Both front ends (--simulate=N and the
 * daemon's sim_iterations) check through it.
 */
void checkIterations(std::uint64_t iterations, const char *what);

/** Options controlling a simulation campaign. */
struct SimOptions
{
    /** Base RNG seed; iteration i runs with seed + i. */
    std::uint64_t seed = 1;

    /** Number of randomized schedules to run. */
    std::size_t iterations = 2000;

    CoherenceMode mode = CoherenceMode::Proxy;
};

/** Aggregate result of a simulation campaign. */
struct SimResult
{
    std::string testName;
    CoherenceMode mode = CoherenceMode::Proxy;

    /** Outcome -> number of schedules that produced it. */
    std::map<litmus::Outcome, std::size_t> histogram;

    /** Counters summed over all iterations. */
    MachineStats stats;

    std::size_t iterations = 0;

    /** Mean simulated latency per schedule. */
    double meanLatency() const;

    /** Multi-line human-readable report. */
    std::string summary() const;
};

/** Randomized driver for the operational machine. */
class Simulator
{
  public:
    explicit Simulator(SimOptions options = {});

    /** Run the full campaign. */
    SimResult run(const litmus::LitmusTest &test) const;

    /** Run a single schedule with an explicit seed. */
    litmus::Outcome runOnce(const litmus::LitmusTest &test,
                            std::uint64_t seed,
                            MachineStats *stats_out = nullptr) const;

    /**
     * Run a single schedule like runOnce, emitting the execution as a
     * mixedproxy.trace.v1 stream (header, events, footer) onto @p out.
     */
    litmus::Outcome runTraced(const litmus::LitmusTest &test,
                              std::uint64_t seed, std::ostream &out,
                              MachineStats *stats_out = nullptr) const;

    const SimOptions &options() const { return opts; }

  private:
    SimOptions opts;
};

} // namespace mixedproxy::microarch

#endif // MIXEDPROXY_MICROARCH_SIMULATOR_HH
