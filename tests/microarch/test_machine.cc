/**
 * @file
 * Deterministic machine tests: hand-picked schedules reproducing the
 * paper's microarchitectural scenarios (Fig. 4 paths 3a/3b, Fig. 6),
 * plus mode-specific behavior of the §4.2/§4.3 ablations.
 */

#include <gtest/gtest.h>

#include "litmus/registry.hh"
#include "litmus/test.hh"
#include "microarch/machine.hh"
#include "relation/error.hh"

namespace {

using namespace mixedproxy;
using namespace mixedproxy::microarch;
using litmus::LitmusBuilder;
using litmus::LitmusTest;

/** Step thread @p t once (the action must exist). */
void
step(Machine &machine, std::size_t t)
{
    for (const auto &a : machine.actions()) {
        if (a.kind == Action::Kind::ThreadStep && a.thread == t) {
            machine.execute(a);
            return;
        }
    }
    FAIL() << "thread " << t << " has no step action";
}

/** Drain every queue to completion. */
void
drainEverything(Machine &machine)
{
    while (true) {
        bool drained = false;
        for (const auto &a : machine.actions()) {
            if (a.kind != Action::Kind::ThreadStep) {
                machine.execute(a);
                drained = true;
                break;
            }
        }
        if (!drained)
            return;
    }
}

LitmusTest
fig4Test(bool proxy_fence)
{
    LitmusBuilder b("fig4");
    b.alias("c", "g");
    std::vector<std::string> instrs{"st.global.u32 [g], 42"};
    if (proxy_fence)
        instrs.push_back("fence.proxy.constant");
    instrs.push_back("ld.const.u32 r1, [c]");
    b.thread("t0", 0, 0, instrs);
    b.permit("t0.r1 == 0 || t0.r1 == 42");
    return b.build();
}

TEST(Machine, Fig4Path3bReordering)
{
    // The store is delayed in the generic path (queued, not drained);
    // the constant load passes it to the L2 and returns stale data.
    Machine machine(fig4Test(false));
    step(machine, 0);                 // st [g], 42 -> queued
    step(machine, 0);                 // ld.const [c] -> misses, reads L2
    drainEverything(machine);         // store finally reaches L2
    ASSERT_TRUE(machine.finished());
    auto outcome = machine.outcome();
    EXPECT_EQ(outcome.reg("t0", "r1"), 0u);
    EXPECT_EQ(outcome.mem("g"), 42u);
}

TEST(Machine, Fig4StoreDrainsFirst)
{
    // If the store wins the race, the load sees fresh data.
    Machine machine(fig4Test(false));
    step(machine, 0);
    drainEverything(machine);
    step(machine, 0);
    ASSERT_TRUE(machine.finished());
    EXPECT_EQ(machine.outcome().reg("t0", "r1"), 42u);
}

TEST(Machine, Fig4Path3aStaleHit)
{
    // A warmed constant cache keeps returning the stale line even after
    // the store has fully drained: the 3a path.
    auto test = LitmusBuilder("fig4_warm")
                    .alias("c", "g")
                    .thread("t0", 0, 0, {"ld.const.u32 r0, [c]",
                                         "st.global.u32 [g], 42",
                                         "ld.const.u32 r1, [c]"})
                    .permit("t0.r1 == 0")
                    .build();
    Machine machine(test);
    step(machine, 0);         // warm the constant cache (0)
    step(machine, 0);         // store
    drainEverything(machine); // store fully visible at L2
    step(machine, 0);         // constant load HITS the stale line
    ASSERT_TRUE(machine.finished());
    EXPECT_EQ(machine.outcome().reg("t0", "r1"), 0u);
    EXPECT_GE(machine.stats().constHits, 1u);
}

TEST(Machine, ProxyFenceFixesFig4UnderEverySchedule)
{
    // With the constant proxy fence, both schedules give 42: the fence
    // drains the store and invalidates the constant cache.
    Machine machine(fig4Test(true));
    step(machine, 0); // st (queued)
    step(machine, 0); // fence.proxy.constant (drains + invalidates)
    step(machine, 0); // ld.const -> must read L2 -> 42
    drainEverything(machine);
    ASSERT_TRUE(machine.finished());
    EXPECT_EQ(machine.outcome().reg("t0", "r1"), 42u);
}

TEST(Machine, GenericFenceDoesNotHelpFig4WarmHit)
{
    // fig4_warmed_stale_hit from the registry: the generic fence drains
    // the store but cannot invalidate the constant cache.
    const auto &test = litmus::testByName("fig4_warmed_stale_hit");
    Machine machine(test);
    while (!machine.finished()) {
        // Always prefer thread steps; drain only when forced. The store
        // is drained by the fence itself.
        auto actions = machine.actions();
        machine.execute(actions.front());
    }
    auto outcome = machine.outcome();
    EXPECT_EQ(outcome.reg("t0", "r1"), 0u);
    EXPECT_EQ(outcome.mem("global_ptr"), 42u);
}

TEST(Machine, SameVaForwardingKeepsIntraThreadCoherence)
{
    auto test = LitmusBuilder("fwd")
                    .thread("t0", 0, 0, {"st.global.u32 [x], 1",
                                         "st.global.u32 [x], 2",
                                         "ld.global.u32 r1, [x]"})
                    .permit("t0.r1 == 2")
                    .build();
    Machine machine(test);
    step(machine, 0);
    step(machine, 0);
    step(machine, 0); // load must forward the youngest queued store
    drainEverything(machine);
    EXPECT_EQ(machine.outcome().reg("t0", "r1"), 2u);
    EXPECT_EQ(machine.outcome().mem("x"), 2u); // per-tag FIFO drain
}

TEST(Machine, SurfaceStoreVisibleToSameSmSurfaceLoad)
{
    const auto &test = litmus::testByName("fig6_surface_same_cta");
    Machine machine(test);
    step(machine, 0); // sust (texture cache updated, queued)
    step(machine, 0); // suld hits the texture cache
    drainEverything(machine);
    EXPECT_EQ(machine.outcome().reg("t0", "r1"), 9u);
}

TEST(Machine, CrossSmSurfaceStaleWithoutEntryFence)
{
    // fig6_surface_cross_cta_writer_only, scheduled so the reader's
    // texture cache was warmed before the writer ran.
    auto test =
        LitmusBuilder("surf_warm")
            .thread("t0", 0, 0, {"sust.b.u32 [s], 9",
                                 "fence.proxy.surface",
                                 "st.release.gpu.u32 [f], 1"})
            .thread("t1", 1, 0, {"suld.b.u32 r0, [s]",
                                 "ld.acquire.gpu.u32 r1, [f]",
                                 "suld.b.u32 r2, [s]"})
            .permit("t1.r1 == 1 && t1.r2 == 0")
            .build();
    Machine machine(test);
    step(machine, 1); // warm t1's texture cache with s == 0
    step(machine, 0); // sust
    step(machine, 0); // fence.proxy.surface (drains to L2)
    step(machine, 0); // release f = 1
    step(machine, 1); // acquire reads f == 1
    step(machine, 1); // suld HITS the stale texture line
    drainEverything(machine);
    auto outcome = machine.outcome();
    EXPECT_EQ(outcome.reg("t1", "r1"), 1u);
    EXPECT_EQ(outcome.reg("t1", "r2"), 0u);
}

TEST(Machine, AcquireInvalidatesL1)
{
    // Without the acquire invalidation this would return the stale L1
    // line and violate the model's message-passing guarantee.
    auto test = LitmusBuilder("acq_inval")
                    .thread("t0", 0, 0, {"ld.global.u32 r0, [x]",
                                         "ld.acquire.gpu.u32 r1, [f]",
                                         "ld.global.u32 r2, [x]"})
                    .thread("t1", 1, 0, {"st.global.u32 [x], 42",
                                         "st.release.gpu.u32 [f], 1"})
                    .permit("t0.r0 == 0")
                    .build();
    Machine machine(test);
    step(machine, 0); // warm t0's L1 with x == 0
    step(machine, 1); // st x (queued on t1's SM)
    step(machine, 1); // release drains, f = 1 at L2
    step(machine, 0); // acquire reads 1, invalidates L1
    step(machine, 0); // ld x must miss and read 42
    drainEverything(machine);
    auto outcome = machine.outcome();
    EXPECT_EQ(outcome.reg("t0", "r1"), 1u);
    EXPECT_EQ(outcome.reg("t0", "r2"), 42u);
}

TEST(Machine, SmPerCtaSharing)
{
    // Threads in the same CTA share one SM; different CTAs get their
    // own.
    auto test = LitmusBuilder("sms")
                    .thread("a", 0, 0, {"ld.global.u32 r1, [x]"})
                    .thread("b", 0, 0, {"ld.global.u32 r1, [x]"})
                    .thread("c", 1, 0, {"ld.global.u32 r1, [x]"})
                    .permit("a.r1 == 0")
                    .build();
    Machine machine(test);
    EXPECT_EQ(machine.smCount(), 2u);
}

TEST(Machine, OutcomeBeforeFinishPanics)
{
    Machine machine(fig4Test(false));
    EXPECT_THROW(machine.outcome(), PanicError);
}

TEST(Machine, FullyCoherentModeAlwaysFresh)
{
    // §4.2 ablation: with physical tagging + invalidation, Fig. 4 reads
    // 42 under every schedule, even warmed.
    const auto &test = litmus::testByName("fig4_warmed_stale_hit");
    Machine machine(test, CoherenceMode::FullyCoherent);
    while (!machine.finished())
        machine.execute(machine.actions().front());
    EXPECT_EQ(machine.outcome().reg("t0", "r1"), 42u);
    EXPECT_GE(machine.stats().translations, 1u);
    EXPECT_GE(machine.stats().invalidatedLines, 1u);
}

TEST(Machine, FenceReuseModeFixesProxyRaceAtACost)
{
    // §4.3 ablation: a generic fence that also flushes/invalidates the
    // proxy paths fixes fig4_warmed, but charges fence invalidations.
    const auto &test = litmus::testByName("fig4_warmed_stale_hit");
    Machine machine(test, CoherenceMode::FenceReuse);
    while (!machine.finished())
        machine.execute(machine.actions().front());
    EXPECT_EQ(machine.outcome().reg("t0", "r1"), 42u);
    EXPECT_GE(machine.stats().fenceInvalidations, 1u);
}

TEST(Machine, CtaFenceIsFreeUnderProxyButNotUnderFenceReuse)
{
    auto test = LitmusBuilder("cta_fence")
                    .thread("t0", 0, 0, {"st.global.u32 [x], 1",
                                         "fence.acq_rel.cta",
                                         "ld.global.u32 r1, [x]"})
                    .permit("t0.r1 == 1")
                    .build();
    Machine proxy_machine(test, CoherenceMode::Proxy);
    while (!proxy_machine.finished())
        proxy_machine.execute(proxy_machine.actions().front());
    EXPECT_EQ(proxy_machine.stats().fenceDrains, 0u);

    Machine reuse_machine(test, CoherenceMode::FenceReuse);
    while (!reuse_machine.finished())
        reuse_machine.execute(reuse_machine.actions().front());
    EXPECT_GE(reuse_machine.stats().fenceDrains, 1u);
}

TEST(Machine, StatsAccumulate)
{
    Machine machine(fig4Test(false));
    while (!machine.finished())
        machine.execute(machine.actions().front());
    const auto &stats = machine.stats();
    EXPECT_EQ(stats.loads, 1u);
    EXPECT_EQ(stats.stores, 1u);
    EXPECT_GT(stats.totalLatency, 0u);
}

} // namespace
