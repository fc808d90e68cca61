/**
 * @file
 * Driving the operational GPU machine by hand: the two
 * microarchitectural paths of the paper's Fig. 4, plus the cost
 * comparison against the §4.2 "just make everything coherent"
 * alternative.
 *
 * Path (3a): the constant load hits a previously-cached stale line.
 * Path (3b): the store is delayed in the generic path and the load
 * passes it to the L2.
 */

#include <iostream>

#include "litmus/test.hh"
#include "microarch/machine.hh"
#include "microarch/simulator.hh"

using namespace mixedproxy;
using namespace mixedproxy::microarch;

namespace {

litmus::LitmusTest
fig4(bool warm)
{
    litmus::LitmusBuilder b(warm ? "fig4_warm" : "fig4");
    b.alias("const_array", "global_ptr");
    std::vector<std::string> instrs;
    if (warm)
        instrs.push_back("ld.const.u32 r0, [const_array]");
    instrs.push_back("st.global.u32 [global_ptr], 42");
    instrs.push_back("ld.const.u32 r1, [const_array]");
    b.thread("t0", 0, 0, instrs);
    b.permit("t0.r1 == 0 || t0.r1 == 42");
    return b.build();
}

/** Step the one thread; drains happen only when we say so. */
void
stepThread(Machine &machine)
{
    for (const auto &action : machine.actions()) {
        if (action.kind == Action::Kind::ThreadStep) {
            std::cout << "  " << action.toString() << "\n";
            machine.execute(action);
            return;
        }
    }
}

void
drainAll(Machine &machine)
{
    bool drained = true;
    while (drained) {
        drained = false;
        for (const auto &action : machine.actions()) {
            if (action.kind != Action::Kind::ThreadStep) {
                std::cout << "  " << action.toString() << "\n";
                machine.execute(action);
                drained = true;
                break;
            }
        }
    }
}

} // namespace

int
main()
{
    std::cout << "=== path (3b): load overtakes the delayed store ===\n";
    Machine path3b(fig4(false));
    stepThread(path3b); // st -> store queue
    stepThread(path3b); // ld.const misses, reads L2 before the drain
    drainAll(path3b);   // store finally reaches the L2
    auto outcome3b = path3b.outcome();
    std::cout << "  outcome: " << outcome3b.toString() << "\n\n";

    std::cout << "=== path (3a): stale hit in the constant cache ===\n";
    Machine path3a(fig4(true));
    stepThread(path3a); // warm the constant cache (value 0)
    stepThread(path3a); // st -> store queue
    drainAll(path3a);   // the store is fully visible at the L2 ...
    stepThread(path3a); // ... but the constant load hits the stale line
    auto outcome3a = path3a.outcome();
    std::cout << "  outcome: " << outcome3a.toString() << "\n"
              << "  constant-cache hits: " << path3a.stats().constHits
              << "\n\n";

    std::cout << "=== randomized campaign, proxy vs coherent design ===\n";
    for (auto mode :
         {CoherenceMode::Proxy, CoherenceMode::FullyCoherent}) {
        SimOptions opts;
        opts.iterations = 3000;
        opts.mode = mode;
        auto result = Simulator(opts).run(fig4(true));
        std::cout << result.summary() << "\n";
    }
    std::cout << "The coherent design never returns stale data but pays "
                 "address translation\nand invalidation traffic on "
                 "every access (paper §4.2).\n";

    return (outcome3b.reg("t0", "r1") == 0 &&
            outcome3a.reg("t0", "r1") == 0)
               ? 0
               : 1;
}
