/**
 * @file
 * Unit tests for the static program expansion: events, program order,
 * dependencies, moral strength (with the §6.2.2 same-proxy condition),
 * clique construction, and the PTX 6.0 view of a PTX 7.5 expansion.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "litmus/registry.hh"
#include "litmus/test.hh"
#include "model/checker.hh"
#include "model/program.hh"
#include "obs/metrics.hh"
#include "synth/generator.hh"

namespace {

using namespace mixedproxy;
using namespace mixedproxy::model;
using litmus::LitmusBuilder;
using litmus::LitmusTest;

/** Find the single event matching a predicate. */
template <typename Pred>
const Event &
theEvent(const Program &program, Pred pred)
{
    const Event *found = nullptr;
    for (const auto &e : program.events()) {
        if (pred(e)) {
            EXPECT_EQ(found, nullptr) << "predicate matched twice";
            found = &e;
        }
    }
    EXPECT_NE(found, nullptr) << "predicate matched nothing";
    return *found;
}

LitmusTest
mpTest()
{
    return LitmusBuilder("mp")
        .thread("t0", 0, 0, {"st.global.u32 [x], 42",
                             "st.release.cta.u32 [y], 1"})
        .thread("t1", 0, 0, {"ld.acquire.cta.u32 r1, [y]",
                             "ld.global.u32 r2, [x]"})
        .permit("t1.r1 == 0")
        .build();
}

TEST(Program, EventLayout)
{
    Program p(mpTest(), ProxyMode::Ptx75);
    // 2 init writes + 4 instruction events.
    EXPECT_EQ(p.size(), 6u);
    EXPECT_EQ(p.locationCount(), 2u);
    EXPECT_TRUE(p.event(0).isInit);
    EXPECT_TRUE(p.event(1).isInit);
    EXPECT_EQ(p.reads().size(), 2u);
}

TEST(Program, ProgramOrderIsPerThread)
{
    Program p(mpTest(), ProxyMode::Ptx75);
    const Event &w_x = theEvent(p, [](const Event &e) {
        return e.isWrite() && !e.isInit && e.thread == 0 &&
               e.instrIndex == 0;
    });
    const Event &w_y = theEvent(p, [](const Event &e) {
        return e.isWrite() && !e.isInit && e.thread == 0 &&
               e.instrIndex == 1;
    });
    const Event &r_y = theEvent(p, [](const Event &e) {
        return e.isRead() && e.thread == 1 && e.instrIndex == 0;
    });
    EXPECT_TRUE(p.po().contains(w_x.id, w_y.id));
    EXPECT_FALSE(p.po().contains(w_y.id, w_x.id));
    EXPECT_FALSE(p.po().contains(w_x.id, r_y.id));
    EXPECT_FALSE(p.po().contains(0, w_x.id)); // init has no po
}

TEST(Program, AtomicsExpandToReadWritePairs)
{
    auto test = LitmusBuilder("atom")
                    .thread("t0", 0, 0, {"atom.add.u32 r1, [x], 1"})
                    .permit("t0.r1 == 0")
                    .build();
    Program p(test, ProxyMode::Ptx75);
    const Event &r = theEvent(p, [](const Event &e) {
        return e.isRead() && !e.isInit;
    });
    const Event &w = theEvent(p, [](const Event &e) {
        return e.isWrite() && !e.isInit;
    });
    EXPECT_EQ(r.rmwPartner, w.id);
    EXPECT_EQ(w.rmwPartner, r.id);
    EXPECT_TRUE(r.isAtomic());
    EXPECT_TRUE(p.po().contains(r.id, w.id));
    // add has an internal value dependency read -> write
    EXPECT_TRUE(p.dep().contains(r.id, w.id));
}

TEST(Program, ExchHasNoInternalDependency)
{
    auto test = LitmusBuilder("exch")
                    .thread("t0", 0, 0, {"atom.exch.u32 r1, [x], 5"})
                    .permit("t0.r1 == 0")
                    .build();
    Program p(test, ProxyMode::Ptx75);
    const Event &r = theEvent(p, [](const Event &e) {
        return e.isRead() && !e.isInit;
    });
    EXPECT_FALSE(p.dep().contains(r.id, r.rmwPartner));
}

TEST(Program, RegisterDependencies)
{
    auto test = LitmusBuilder("dep")
                    .thread("t0", 0, 0, {"ld.global.u32 r1, [x]",
                                         "st.global.u32 [y], r1"})
                    .permit("t0.r1 == 0")
                    .build();
    Program p(test, ProxyMode::Ptx75);
    const Event &ld = theEvent(p, [](const Event &e) {
        return e.isRead() && !e.isInit;
    });
    const Event &st = theEvent(p, [](const Event &e) {
        return e.isWrite() && !e.isInit;
    });
    EXPECT_TRUE(p.dep().contains(ld.id, st.id));
    EXPECT_EQ(p.regDef(0, "r1"), ld.id);
}

TEST(Program, ProxyTagging)
{
    auto test = LitmusBuilder("proxies")
                    .alias("c", "x")
                    .thread("t0", 3, 0, {"st.global.u32 [x], 1",
                                         "ld.const.u32 r1, [c]",
                                         "tex.1d.u32 r2, [x]",
                                         "suld.b.u32 r3, [x]"})
                    .permit("t0.r1 == 0")
                    .build();
    Program p(test, ProxyMode::Ptx75);
    const Event &st = theEvent(p, [](const Event &e) {
        return e.isWrite() && !e.isInit;
    });
    const Event &c = theEvent(p, [](const Event &e) {
        return e.proxy.kind == litmus::ProxyKind::Constant;
    });
    const Event &t = theEvent(p, [](const Event &e) {
        return e.proxy.kind == litmus::ProxyKind::Texture;
    });
    const Event &s = theEvent(p, [](const Event &e) {
        return e.proxy.kind == litmus::ProxyKind::Surface;
    });
    EXPECT_EQ(st.proxy.kind, litmus::ProxyKind::Generic);
    EXPECT_EQ(st.proxy.address, st.address);
    // Non-generic proxies are specialized by CTA (Fig. 5 "Surface (CTA
    // 4)").
    EXPECT_EQ(c.proxy.cta, 3);
    EXPECT_EQ(t.proxy.cta, 3);
    EXPECT_EQ(s.proxy.cta, 3);
    // All four access the same physical location.
    EXPECT_EQ(st.location, c.location);
    EXPECT_EQ(st.location, t.location);
    EXPECT_EQ(st.location, s.location);
    // But the constant load's virtual address differs (alias).
    EXPECT_NE(st.address, c.address);
}

TEST(Program, Ptx60ModeErasesProxies)
{
    auto test = LitmusBuilder("erase")
                    .alias("c", "x")
                    .thread("t0", 0, 0, {"st.global.u32 [x], 1",
                                         "ld.const.u32 r1, [c]"})
                    .permit("t0.r1 == 0")
                    .build();
    Program p(test, ProxyMode::Ptx60);
    const Event &st = theEvent(p, [](const Event &e) {
        return e.isWrite() && !e.isInit;
    });
    const Event &ld = theEvent(p, [](const Event &e) {
        return e.isRead() && !e.isInit;
    });
    EXPECT_EQ(ld.proxy.kind, litmus::ProxyKind::Generic);
    EXPECT_EQ(st.proxy, ld.proxy);
    EXPECT_EQ(st.address, ld.address);
}

TEST(Program, MoralStrengthSameThreadSameProxy)
{
    auto test = LitmusBuilder("ms")
                    .alias("c", "x")
                    .thread("t0", 0, 0, {"st.global.u32 [x], 1",
                                         "ld.global.u32 r1, [x]",
                                         "ld.const.u32 r2, [c]"})
                    .permit("t0.r1 == 1")
                    .build();
    Program p(test, ProxyMode::Ptx75);
    const Event &st = theEvent(p, [](const Event &e) {
        return e.isWrite() && !e.isInit;
    });
    const Event &ld = theEvent(p, [](const Event &e) {
        return e.isRead() && e.proxy.kind == litmus::ProxyKind::Generic;
    });
    const Event &ldc = theEvent(p, [](const Event &e) {
        return e.proxy.kind == litmus::ProxyKind::Constant;
    });
    // Same thread, same proxy, same location: morally strong.
    EXPECT_TRUE(p.morallyStrong().contains(st.id, ld.id));
    EXPECT_TRUE(p.morallyStrong().contains(ld.id, st.id));
    // Same thread but DIFFERENT proxy: not morally strong (§6.2.2).
    EXPECT_FALSE(p.morallyStrong().contains(st.id, ldc.id));
    // Under PTX 6.0 (proxies erased) the pair would be morally strong.
    Program p60(test, ProxyMode::Ptx60);
    const Event &st60 = theEvent(p60, [](const Event &e) {
        return e.isWrite() && !e.isInit;
    });
    const Event &ldc60 = theEvent(p60, [](const Event &e) {
        return e.isRead() && !e.isInit && e.instrIndex == 2;
    });
    EXPECT_TRUE(p60.morallyStrong().contains(st60.id, ldc60.id));
}

TEST(Program, MoralStrengthScopes)
{
    auto test = LitmusBuilder("scopes")
                    .thread("t0", 0, 0, {"st.relaxed.cta.u32 [x], 1"})
                    .thread("t1", 0, 0, {"ld.relaxed.gpu.u32 r1, [x]"})
                    .thread("t2", 1, 0, {"ld.relaxed.gpu.u32 r2, [x]"})
                    .thread("t3", 2, 1, {"ld.relaxed.gpu.u32 r3, [x]"})
                    .permit("t1.r1 == 0")
                    .build();
    Program p(test, ProxyMode::Ptx75);
    const Event &w = theEvent(p, [](const Event &e) {
        return e.isWrite() && !e.isInit;
    });
    auto read_of = [&](int thread) -> const Event & {
        return theEvent(p, [thread](const Event &e) {
            return e.isRead() && e.thread == thread;
        });
    };
    // cta-scoped write vs gpu-scoped read in the same CTA: mutual
    // inclusion holds.
    EXPECT_TRUE(p.morallyStrong().contains(w.id, read_of(1).id));
    // Different CTA: the cta-scoped write does not include the reader.
    EXPECT_FALSE(p.morallyStrong().contains(w.id, read_of(2).id));
    // Different GPU entirely.
    EXPECT_FALSE(p.morallyStrong().contains(w.id, read_of(3).id));
}

TEST(Program, MoralStrengthWeakOps)
{
    auto test = LitmusBuilder("weak")
                    .thread("t0", 0, 0, {"st.global.u32 [x], 1"})
                    .thread("t1", 1, 0, {"ld.global.u32 r1, [x]"})
                    .permit("t1.r1 == 0")
                    .build();
    Program p(test, ProxyMode::Ptx75);
    const Event &w = theEvent(p, [](const Event &e) {
        return e.isWrite() && !e.isInit;
    });
    const Event &r = theEvent(p, [](const Event &e) {
        return e.isRead() && !e.isInit;
    });
    // Cross-thread weak operations are never morally strong.
    EXPECT_FALSE(p.morallyStrong().contains(w.id, r.id));
    // But the init write is morally strong with overlapping accesses.
    EXPECT_TRUE(p.morallyStrong().contains(p.initWrite(w.location), r.id));
}

TEST(Program, ReadSourcesExcludeFutureAndSelf)
{
    auto test = LitmusBuilder("sources")
                    .thread("t0", 0, 0, {"ld.global.u32 r1, [x]",
                                         "st.global.u32 [x], 1"})
                    .thread("t1", 1, 0, {"atom.add.u32 r2, [x], 1"})
                    .permit("t0.r1 == 0")
                    .build();
    Program p(test, ProxyMode::Ptx75);
    const Event &ld = theEvent(p, [](const Event &e) {
        return e.isRead() && e.thread == 0;
    });
    const Event &st = theEvent(p, [](const Event &e) {
        return e.isWrite() && e.thread == 0;
    });
    const Event &atom_r = theEvent(p, [](const Event &e) {
        return e.isRead() && e.thread == 1;
    });
    const Event &atom_w = theEvent(p, [](const Event &e) {
        return e.isWrite() && e.thread == 1;
    });
    auto ld_sources = p.readSources(ld.id);
    // The po-later store is not a candidate source for the load.
    EXPECT_EQ(std::count(ld_sources.begin(), ld_sources.end(), st.id), 0);
    // The atomic's write IS a candidate (cross-thread).
    EXPECT_EQ(std::count(ld_sources.begin(), ld_sources.end(), atom_w.id),
              1);
    // An RMW cannot read its own write.
    auto atom_sources = p.readSources(atom_r.id);
    EXPECT_EQ(std::count(atom_sources.begin(), atom_sources.end(),
                         atom_w.id),
              0);
    EXPECT_EQ(std::count(atom_sources.begin(), atom_sources.end(), st.id),
              1);
}

TEST(Program, CliquesSeparateProxies)
{
    auto test = LitmusBuilder("cliques")
                    .alias("c", "x")
                    .thread("t0", 0, 0, {"st.global.u32 [x], 1",
                                         "ld.global.u32 r1, [x]",
                                         "ld.const.u32 r2, [c]"})
                    .permit("t0.r1 == 1")
                    .build();
    Program p(test, ProxyMode::Ptx75);
    const Event &st = theEvent(p, [](const Event &e) {
        return e.isWrite() && !e.isInit;
    });
    const Event &ldc = theEvent(p, [](const Event &e) {
        return e.proxy.kind == litmus::ProxyKind::Constant;
    });
    // No clique contains both the generic store and the constant load.
    for (const auto &clique : p.msCliques()) {
        EXPECT_FALSE(clique.contains(st.id) && clique.contains(ldc.id))
            << clique.toString();
    }
    // Some clique contains the store and the generic load.
    const Event &ld = theEvent(p, [](const Event &e) {
        return e.isRead() && e.proxy.kind == litmus::ProxyKind::Generic;
    });
    bool found = false;
    for (const auto &clique : p.msCliques()) {
        if (clique.contains(st.id) && clique.contains(ld.id))
            found = true;
    }
    EXPECT_TRUE(found);
}

TEST(Program, ReleaseAcquirePatterns)
{
    auto test = LitmusBuilder("patterns")
                    .thread("t0", 0, 0, {"st.global.u32 [x], 1",
                                         "fence.acq_rel.gpu",
                                         "st.relaxed.gpu.u32 [y], 1",
                                         "st.release.gpu.u32 [z], 1"})
                    .thread("t1", 1, 0, {"ld.relaxed.gpu.u32 r1, [y]",
                                         "fence.acq_rel.gpu",
                                         "ld.acquire.gpu.u32 r2, [z]"})
                    .permit("t1.r1 == 0")
                    .build();
    Program p(test, ProxyMode::Ptx75);
    // Release patterns: the release store, plus fence;relaxed-store and
    // fence;release-store.
    EXPECT_EQ(p.releasePatterns().size(), 3u);
    // Acquire patterns: the acquire load, plus relaxed-load;fence. (The
    // acquire load is po-after the fence, not before, so it does not
    // pair with it.)
    EXPECT_EQ(p.acquirePatterns().size(), 2u);
}

TEST(Program, ScopeIncludes)
{
    auto test = mpTest();
    Program p(test, ProxyMode::Ptx75);
    const Event &rel = theEvent(p, [](const Event &e) {
        return e.isWrite() && !e.isInit && e.instrIndex == 1;
    });
    EXPECT_TRUE(p.scopeIncludes(rel, 0));
    EXPECT_TRUE(p.scopeIncludes(rel, 1)); // same CTA
    EXPECT_TRUE(p.scopeIncludes(rel, -1)); // init pseudo-thread
}

/** Every field two expansions can differ in, compared one by one. */
void
expectSameProgram(const Program &a, const Program &b,
                  const std::string &name)
{
    SCOPED_TRACE(name);
    EXPECT_EQ(&a.test(), &b.test());
    EXPECT_EQ(a.mode(), b.mode());
    ASSERT_EQ(a.size(), b.size());
    for (EventId id = 0; id < a.size(); id++) {
        const Event &x = a.event(id);
        const Event &y = b.event(id);
        SCOPED_TRACE(x.toString());
        EXPECT_EQ(x.id, y.id);
        EXPECT_EQ(x.kind, y.kind);
        EXPECT_EQ(x.thread, y.thread);
        EXPECT_EQ(x.threadName, y.threadName);
        EXPECT_EQ(x.cta, y.cta);
        EXPECT_EQ(x.gpu, y.gpu);
        EXPECT_EQ(x.instrIndex, y.instrIndex);
        EXPECT_EQ(x.sem, y.sem);
        EXPECT_EQ(x.scope, y.scope);
        EXPECT_EQ(x.location, y.location);
        EXPECT_EQ(x.address, y.address);
        EXPECT_EQ(x.proxy, y.proxy);
        EXPECT_EQ(x.accessSize, y.accessSize);
        EXPECT_EQ(x.proxyFence, y.proxyFence);
        EXPECT_EQ(x.rmwPartner, y.rmwPartner);
        EXPECT_EQ(x.asyncCopyPartner, y.asyncCopyPartner);
        EXPECT_EQ(x.destReg, y.destReg);
        EXPECT_EQ(x.isInit, y.isInit);
        EXPECT_EQ(x.instr, y.instr);
        EXPECT_EQ(x.toString(), y.toString());
        EXPECT_EQ(a.valueDef(id), b.valueDef(id));
        EXPECT_EQ(a.expectedDef(id), b.expectedDef(id));
    }
    EXPECT_EQ(a.po(), b.po());
    EXPECT_EQ(a.dep(), b.dep());
    EXPECT_EQ(a.morallyStrong(), b.morallyStrong());
    EXPECT_EQ(a.barrierSync(), b.barrierSync());
    EXPECT_EQ(a.msCliques(), b.msCliques());
    EXPECT_EQ(a.reads(), b.reads());
    for (EventId r : a.reads())
        EXPECT_EQ(a.readSources(r), b.readSources(r));
    EXPECT_EQ(a.scFences(), b.scFences());
    EXPECT_EQ(a.proxyFences(), b.proxyFences());
    ASSERT_EQ(a.releasePatterns().size(), b.releasePatterns().size());
    for (std::size_t i = 0; i < a.releasePatterns().size(); i++) {
        EXPECT_EQ(a.releasePatterns()[i].first,
                  b.releasePatterns()[i].first);
        EXPECT_EQ(a.releasePatterns()[i].write,
                  b.releasePatterns()[i].write);
    }
    ASSERT_EQ(a.acquirePatterns().size(), b.acquirePatterns().size());
    for (std::size_t i = 0; i < a.acquirePatterns().size(); i++) {
        EXPECT_EQ(a.acquirePatterns()[i].read,
                  b.acquirePatterns()[i].read);
        EXPECT_EQ(a.acquirePatterns()[i].last,
                  b.acquirePatterns()[i].last);
    }
    EXPECT_EQ(a.usesMixedProxies(), b.usesMixedProxies());
    EXPECT_EQ(a.overlapPairs(), b.overlapPairs());
    EXPECT_EQ(a.mustCause(), b.mustCause());
    EXPECT_EQ(a.depClosure(), b.depClosure());
    EXPECT_EQ(a.hasAtomicReads(), b.hasAtomicReads());
    ASSERT_EQ(a.locationCount(), b.locationCount());
    for (LocationId loc = 0;
         loc < static_cast<LocationId>(a.locationCount()); loc++) {
        EXPECT_EQ(a.locationName(loc), b.locationName(loc));
        EXPECT_EQ(a.initValue(loc), b.initValue(loc));
        EXPECT_EQ(a.initWrite(loc), b.initWrite(loc));
        EXPECT_EQ(a.writesAt(loc), b.writesAt(loc));
    }
}

std::map<std::string, std::uint64_t, std::less<>>
counters(const CheckStats &stats)
{
    obs::MetricsRegistry registry;
    stats.publish(registry);
    return registry.counters();
}

/** The view equals a direct expansion, and checks the same. */
void
expectViewMatchesDirect(const LitmusTest &test, const Checker &checker60,
                        std::size_t &mixed)
{
    const Program ptx75(test, ProxyMode::Ptx75);
    const Program view = ptx75.ptx60View();
    const Program direct(test, ProxyMode::Ptx60);
    expectSameProgram(view, direct, test.name());
    EXPECT_FALSE(view.usesMixedProxies()) << test.name();
    if (ptx75.usesMixedProxies())
        mixed++;

    const auto by_view = checker60.check(view);
    const auto by_direct = checker60.check(direct);
    EXPECT_EQ(by_view.outcomes, by_direct.outcomes) << test.name();
    EXPECT_EQ(counters(by_view.stats), counters(by_direct.stats))
        << test.name();
    EXPECT_EQ(by_view.budgetExceeded, by_direct.budgetExceeded);
    ASSERT_EQ(by_view.witnesses.size(), by_direct.witnesses.size());
    for (const auto &[outcome, witness] : by_view.witnesses) {
        EXPECT_EQ(witness.toString(),
                  by_direct.witnesses.at(outcome).toString())
            << test.name();
    }
}

TEST(Program, Ptx60ViewEqualsDirectExpansion)
{
    // Every built-in and every unique program synthesis classifies at
    // n <= 3: the view of the PTX 7.5 expansion is the direct PTX 6.0
    // expansion, field by field, and the PTX 6.0 check of either gives
    // the same outcomes, witnesses and counters.
    CheckOptions opts;
    opts.mode = ProxyMode::Ptx60;
    const Checker checker60(opts);
    std::size_t programs = 0;
    std::size_t mixed = 0;
    for (const auto &test : litmus::allTests()) {
        expectViewMatchesDirect(test, checker60, mixed);
        programs++;
    }
    EXPECT_EQ(programs, 96u);
    for (std::size_t n = 1; n <= 3; n++) {
        synth::SynthOptions synth_opts;
        synth_opts.instructions = n;
        synth::Synthesizer(synth_opts)
            .forEachProgram([&](const LitmusTest &test) {
                expectViewMatchesDirect(test, checker60, mixed);
                programs++;
            });
    }
    // 96 built-ins plus the n = 1, 2, 3 populations (0, 36 and 3168
    // unique programs); most of them mix proxies, so the erasure has
    // work to do.
    EXPECT_EQ(programs, 96u + 36u + 3168u);
    EXPECT_GT(mixed, programs / 2);
}

} // namespace
