/**
 * @file
 * Unit tests for CTA execution barriers (bar.sync): decoding,
 * validation, the rendezvous relation, and causality semantics.
 */

#include <gtest/gtest.h>

#include "litmus/instruction.hh"
#include "litmus/test.hh"
#include "model/checker.hh"
#include "model/program.hh"
#include "model/sc.hh"
#include "relation/error.hh"

namespace {

using namespace mixedproxy;
using namespace mixedproxy::model;
using litmus::LitmusBuilder;

TEST(BarrierDecode, Forms)
{
    auto i = litmus::decode("bar.sync 0");
    EXPECT_EQ(i.opcode, litmus::Opcode::Barrier);
    EXPECT_EQ(i.barrierId, 0u);
    EXPECT_FALSE(i.isMemoryOp());
    EXPECT_FALSE(i.isFence());

    EXPECT_EQ(litmus::decode("barrier.sync 3").barrierId, 3u);
    EXPECT_EQ(litmus::decode("bar.sync 15").barrierId, 15u);

    EXPECT_THROW(litmus::decode("bar.sync"), FatalError);
    EXPECT_THROW(litmus::decode("bar.sync 16"), FatalError);
    EXPECT_THROW(litmus::decode("bar.sync x"), FatalError);
    EXPECT_THROW(litmus::decode("bar.sync 0, 1"), FatalError);
    EXPECT_THROW(litmus::decode("bar.arrive 0"), FatalError);
}

TEST(BarrierValidation, MismatchedSequencesRejected)
{
    // Different barrier counts within one CTA deadlock.
    LitmusBuilder counts("counts");
    counts.thread("t0", 0, 0, {"bar.sync 0", "ld.global.u32 r1, [x]"});
    counts.thread("t1", 0, 0, {"ld.global.u32 r1, [x]"});
    EXPECT_THROW(counts.build(), FatalError);

    // Different barrier ids at the same index too.
    LitmusBuilder ids("ids");
    ids.thread("t0", 0, 0, {"bar.sync 0", "ld.global.u32 r1, [x]"});
    ids.thread("t1", 0, 0, {"bar.sync 1", "ld.global.u32 r1, [x]"});
    EXPECT_THROW(ids.build(), FatalError);

    // Distinct CTAs may have distinct sequences.
    LitmusBuilder ok("ok");
    ok.thread("t0", 0, 0, {"bar.sync 0", "ld.global.u32 r1, [x]"});
    ok.thread("t1", 1, 0, {"ld.global.u32 r1, [x]"});
    EXPECT_NO_THROW(ok.build());
}

TEST(BarrierProgram, RendezvousRelation)
{
    auto test = LitmusBuilder("rv")
                    .thread("t0", 0, 0, {"bar.sync 0",
                                         "ld.global.u32 r1, [x]"})
                    .thread("t1", 0, 0, {"bar.sync 0",
                                         "ld.global.u32 r1, [x]"})
                    .thread("t2", 1, 0, {"bar.sync 0",
                                         "ld.global.u32 r1, [x]"})
                    .permit("t0.r1 == 0")
                    .build();
    Program p(test, ProxyMode::Ptx75);
    std::vector<relation::EventId> barriers;
    for (const auto &e : p.events()) {
        if (e.isBarrier())
            barriers.push_back(e.id);
    }
    ASSERT_EQ(barriers.size(), 3u);
    // t0 and t1 share CTA 0: bidirectional edges.
    EXPECT_TRUE(p.barrierSync().contains(barriers[0], barriers[1]));
    EXPECT_TRUE(p.barrierSync().contains(barriers[1], barriers[0]));
    // t2 is in CTA 1: no edges to/from it.
    EXPECT_FALSE(p.barrierSync().contains(barriers[0], barriers[2]));
    EXPECT_FALSE(p.barrierSync().contains(barriers[2], barriers[1]));
    // Barriers are not morally strong with anything.
    EXPECT_FALSE(p.morallyStrong().contains(barriers[0], barriers[1]));
}

TEST(BarrierProgram, InstancesPairByIndex)
{
    auto test = LitmusBuilder("phases")
                    .thread("t0", 0, 0, {"bar.sync 0", "bar.sync 0",
                                         "ld.global.u32 r1, [x]"})
                    .thread("t1", 0, 0, {"bar.sync 0", "bar.sync 0",
                                         "ld.global.u32 r1, [x]"})
                    .permit("t0.r1 == 0")
                    .build();
    Program p(test, ProxyMode::Ptx75);
    std::vector<const Event *> t0_bars;
    std::vector<const Event *> t1_bars;
    for (const auto &e : p.events()) {
        if (e.isBarrier())
            (e.thread == 0 ? t0_bars : t1_bars).push_back(&e);
    }
    ASSERT_EQ(t0_bars.size(), 2u);
    ASSERT_EQ(t1_bars.size(), 2u);
    EXPECT_TRUE(
        p.barrierSync().contains(t0_bars[0]->id, t1_bars[0]->id));
    EXPECT_TRUE(
        p.barrierSync().contains(t0_bars[1]->id, t1_bars[1]->id));
    // Different instances do not rendezvous with each other.
    EXPECT_FALSE(
        p.barrierSync().contains(t0_bars[0]->id, t1_bars[1]->id));
    EXPECT_FALSE(
        p.barrierSync().contains(t0_bars[1]->id, t1_bars[0]->id));
}

TEST(BarrierChecker, CreatesIntraCtaCausality)
{
    auto test = LitmusBuilder("sync")
                    .thread("t0", 0, 0, {"st.global.u32 [x], 42",
                                         "bar.sync 0"})
                    .thread("t1", 0, 0, {"bar.sync 0",
                                         "ld.global.u32 r1, [x]"})
                    .permit("t1.r1 == 42")
                    .build();
    auto result = model::Checker().check(test);
    ASSERT_EQ(result.outcomes.size(), 1u);
    EXPECT_EQ(result.outcomes.begin()->reg("t1", "r1"), 42u);
}

TEST(BarrierChecker, DoesNotBridgeProxies)
{
    // The rendezvous gives base causality; proxy-preserved base
    // causality still requires the proxy fence (the §4.1 kernel-fusion
    // rule).
    auto test = LitmusBuilder("proxy_gate")
                    .alias("c", "g")
                    .thread("t0", 0, 0, {"st.global.u32 [g], 7",
                                         "bar.sync 0"})
                    .thread("t1", 0, 0, {"bar.sync 0",
                                         "ld.const.u32 r1, [c]"})
                    .permit("t1.r1 == 0")
                    .build();
    auto result = model::Checker().check(test);
    EXPECT_TRUE(result.admits(litmus::parseCondition("t1.r1 == 0")));
    EXPECT_TRUE(result.admits(litmus::parseCondition("t1.r1 == 7")));
}

TEST(BarrierSc, InterleavingsRespectBarrier)
{
    auto test = LitmusBuilder("sc")
                    .thread("t0", 0, 0, {"st.global.u32 [x], 1",
                                         "bar.sync 0",
                                         "st.global.u32 [y], 1"})
                    .thread("t1", 0, 0, {"ld.global.u32 r1, [y]",
                                         "bar.sync 0",
                                         "ld.global.u32 r2, [x]"})
                    .permit("t1.r2 == 1")
                    .build();
    for (const auto &outcome :
         scOutcomes(Program(test, ProxyMode::Ptx75))) {
        // r1 reads y before the barrier: never 1. r2 reads x after:
        // always 1.
        EXPECT_EQ(outcome.reg("t1", "r1"), 0u) << outcome.toString();
        EXPECT_EQ(outcome.reg("t1", "r2"), 1u) << outcome.toString();
    }
}

} // namespace
