/**
 * @file
 * Golden suite for the streaming conformance checker: seeded generated
 * traces, checked at windows 2, 3, 8, 64, 100, 130 and 1024, must
 * reproduce the checked-in ConformReport::summary() transcript
 * byte-for-byte. Windows 100 and 130 retire 50 and 65 fences at a
 * time, so the fence matrix's column shift spans two and three words.
 * The
 * traces mix CTA/GPU placements, cta/gpu/sys (and unscoped) SC fences,
 * stale reads, RMWs and out-of-order commits, so the transcript pins
 * every verdict, violation detail and counter the checker's windowed
 * bookkeeping produces — including the fence-SC edges that depend on
 * which writes each SC fence revisits.
 *
 * On a mismatch the test writes the transcript it produced to
 * conform_golden.actual in its working directory. If the change in
 * output is intentional, regenerate with:
 *
 *   build/tests/test_conform --gtest_filter='ConformGolden.*'
 *   cp build/tests/conform_golden.actual \
 *       tests/conform/goldens/checker_summaries.golden
 */

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "conform/checker.hh"
#include "conform/trace.hh"

namespace {

using namespace mixedproxy;
using conform::TraceHeader;
using conform::TraceLocation;
using conform::TraceThread;
using conform::TraceWriter;
using litmus::ProxyKind;
using litmus::Scope;
using litmus::Semantics;

/** SplitMix64: a portable generator, so the traces never drift. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, n). */
    std::size_t below(std::size_t n) { return next() % n; }

    bool percent(unsigned p) { return below(100) < p; }

  private:
    std::uint64_t state;
};

/** How a case picks the scope of each SC fence. */
enum class FenceScopes {
    Mixed,    ///< cta, gpu or sys at random
    Widening, ///< each thread cycles cta -> gpu -> sys
    WithNone, ///< like Mixed, but one fence in six is unscoped
};

/** Shape of one generated trace. */
struct GenSpec
{
    std::string name;
    std::uint64_t seed = 1;
    std::size_t steps = 2000;
    std::size_t threads = 6;
    std::size_t locations = 6;
    /** Thread t only touches locations congruent to t. */
    bool privateLocations = false;
    unsigned fencePct = 20; ///< steps that are fences
    unsigned loadPct = 35;  ///< steps that are loads
    unsigned rmwPct = 8;    ///< steps that are RMWs
    unsigned stalePct = 10; ///< reads of an older committed write
    std::size_t staleDepth = 8; ///< how far back a stale read looks
    std::size_t maxPending = 4; ///< uncommitted stores before a commit
    FenceScopes scopes = FenceScopes::Mixed;
    /** Share of thread 0's fence turns it actually fences. */
    unsigned thread0FencePct = 100;
};

Scope
randomScope(Rng &rng)
{
    static const Scope kScopes[] = {Scope::Cta, Scope::Gpu, Scope::Sys};
    return kScopes[rng.below(3)];
}

/** Generate one trace per @p spec (events in global order). */
std::string
generate(const GenSpec &spec)
{
    Rng rng(spec.seed);
    TraceHeader hdr;
    hdr.test = spec.name;
    // Pairs of threads share a CTA; the upper half sits on GPU 1, so
    // CTA indices repeat across GPUs.
    for (std::size_t t = 0; t < spec.threads; t++) {
        hdr.threads.push_back(TraceThread{
            "t" + std::to_string(t), (int)(t / 2),
            (int)(t >= spec.threads / 2)});
    }
    for (std::size_t l = 0; l < spec.locations; l++)
        hdr.locations.push_back(TraceLocation{"x" + std::to_string(l), 0});

    std::ostringstream out;
    TraceWriter w(out);
    w.header(hdr);

    struct Write
    {
        std::uint64_t uid;
        std::uint64_t value;
    };
    struct Pending
    {
        std::uint64_t uid;
        std::size_t location;
        std::uint64_t value;
    };
    // Committed writes per location, oldest first (init write first).
    std::vector<std::vector<Write>> history(spec.locations);
    for (std::size_t l = 0; l < spec.locations; l++)
        history[l].push_back(Write{l, 0});
    std::vector<Pending> pending;
    std::vector<std::size_t> fenceCount(spec.threads, 0);
    std::uint64_t nextValue = 1;

    auto commitOne = [&]() {
        const std::size_t i = rng.below(pending.size());
        const Pending p = pending[i];
        pending.erase(pending.begin() + (std::ptrdiff_t)i);
        w.commit(p.uid);
        history[p.location].push_back(Write{p.uid, p.value});
    };
    auto pickLocation = [&](std::size_t t) {
        if (!spec.privateLocations)
            return rng.below(spec.locations);
        const std::size_t per =
            (spec.locations + spec.threads - 1 - t) / spec.threads;
        return t + spec.threads * rng.below(per);
    };
    auto pickSource = [&](std::size_t l, unsigned stalePct) {
        const std::vector<Write> &h = history[l];
        std::size_t back = 0;
        if (rng.percent(stalePct))
            back = rng.below(std::min(spec.staleDepth, h.size()) + 1);
        return h[h.size() - 1 - std::min(back, h.size() - 1)];
    };
    auto strongSem = [&](Semantics strong) {
        switch (rng.below(3)) {
        case 0:
            return std::pair{Semantics::Weak, Scope::None};
        case 1:
            return std::pair{Semantics::Relaxed, randomScope(rng)};
        default:
            return std::pair{strong, randomScope(rng)};
        }
    };

    for (std::size_t step = 0; step < spec.steps; step++) {
        const std::size_t t = rng.below(spec.threads);
        std::size_t roll = rng.below(100);
        if (roll < spec.fencePct && t == 0 &&
            !rng.percent(spec.thread0FencePct))
            roll = spec.fencePct; // a quiet thread loads instead
        if (roll < spec.fencePct) {
            if (rng.percent(8)) {
                w.fence(t, Semantics::AcqRel, randomScope(rng));
                continue;
            }
            if (rng.percent(4)) {
                w.proxyFence(t, litmus::ProxyFenceKind::Alias,
                             Scope::Cta);
                continue;
            }
            Scope scope = randomScope(rng);
            if (spec.scopes == FenceScopes::Widening) {
                static const Scope kWiden[] = {Scope::Cta, Scope::Gpu,
                                               Scope::Sys};
                scope = kWiden[fenceCount[t] % 3];
            } else if (spec.scopes == FenceScopes::WithNone &&
                       rng.percent(17)) {
                scope = Scope::None;
            }
            fenceCount[t]++;
            w.fence(t, Semantics::Sc, scope);
        } else if (roll < spec.fencePct + spec.loadPct) {
            const std::size_t l = pickLocation(t);
            const Write src = pickSource(l, spec.stalePct);
            const auto [sem, scope] = strongSem(Semantics::Acquire);
            w.load(t, l, src.value, src.uid, sem, scope,
                   ProxyKind::Generic, "");
        } else if (roll < spec.fencePct + spec.loadPct + spec.rmwPct) {
            const std::size_t l = pickLocation(t);
            const Write src = pickSource(l, spec.stalePct / 2);
            const std::uint64_t value = nextValue++;
            const Semantics sem =
                rng.percent(50) ? Semantics::AcqRel : Semantics::Relaxed;
            const bool commitNow = !rng.percent(25);
            const std::uint64_t uid =
                w.rmw(t, l, value, src.value, src.uid, sem,
                      randomScope(rng), "", commitNow);
            if (commitNow)
                history[l].push_back(Write{uid, value});
            else
                pending.push_back(Pending{uid, l, value});
        } else {
            const std::size_t l = pickLocation(t);
            const std::uint64_t value = nextValue++;
            const auto [sem, scope] = strongSem(Semantics::Release);
            const ProxyKind proxy = rng.percent(5) ? ProxyKind::Async
                                                   : ProxyKind::Generic;
            pending.push_back(
                Pending{w.store(t, l, value, sem, scope, proxy), l, value});
            while (pending.size() > spec.maxPending || rng.percent(40)) {
                commitOne();
                if (pending.empty())
                    break;
            }
        }
    }
    while (!pending.empty())
        commitOne();

    litmus::Outcome outcome;
    for (std::size_t l = 0; l < spec.locations; l++)
        outcome.memory[hdr.locations[l].name] = history[l].back().value;
    w.finish(outcome);
    return out.str();
}

/** The named cases; every one runs at every window. */
std::vector<GenSpec>
goldenCases()
{
    std::vector<GenSpec> cases;
    GenSpec mixed;
    mixed.name = "mixed_placements";
    mixed.steps = 3000;
    cases.push_back(mixed);

    GenSpec ooo = mixed;
    ooo.name = "out_of_order_commits";
    ooo.seed = 2;
    ooo.threads = 4;
    ooo.locations = 3;
    ooo.maxPending = 12;
    ooo.rmwPct = 15;
    cases.push_back(ooo);

    GenSpec widen = mixed;
    widen.name = "fence_scope_widening";
    widen.seed = 3;
    widen.fencePct = 30;
    widen.scopes = FenceScopes::Widening;
    cases.push_back(widen);

    GenSpec retired = mixed;
    retired.name = "last_fence_retired";
    retired.seed = 4;
    retired.steps = 5000;
    retired.threads = 4;
    retired.fencePct = 45;
    retired.thread0FencePct = 2;
    cases.push_back(retired);

    GenSpec stale = mixed;
    stale.name = "stale_read_fence_edges";
    stale.seed = 5;
    stale.fencePct = 25;
    stale.stalePct = 50;
    cases.push_back(stale);

    GenSpec reader = mixed;
    reader.name = "reader_fence_after_overwrite";
    reader.seed = 6;
    reader.threads = 4;
    reader.locations = 2;
    reader.fencePct = 30;
    reader.loadPct = 40;
    reader.stalePct = 40;
    reader.staleDepth = 1;
    cases.push_back(reader);

    GenSpec priv = mixed;
    priv.name = "private_dirty_overflow";
    priv.seed = 7;
    priv.steps = 8000;
    priv.threads = 4;
    priv.locations = 8;
    priv.privateLocations = true;
    priv.fencePct = 1;
    priv.loadPct = 20;
    priv.maxPending = 2;
    cases.push_back(priv);

    GenSpec unscoped = mixed;
    unscoped.name = "unscoped_sc_fences";
    unscoped.seed = 8;
    unscoped.fencePct = 30;
    unscoped.scopes = FenceScopes::WithNone;
    cases.push_back(unscoped);

    GenSpec sequential = mixed;
    sequential.name = "sequential_fenced";
    sequential.seed = 9;
    sequential.fencePct = 30;
    sequential.stalePct = 0;
    sequential.rmwPct = 0;
    sequential.maxPending = 0;
    cases.push_back(sequential);
    return cases;
}

/**
 * Hand-written trace: every access is relaxed, gpu-scoped and commits
 * at once; thread 0 sits in CTA 0 and the others in CTA 1 of GPU 0.
 */
class Script
{
  public:
    Script(const std::string &name, std::size_t threads,
           std::size_t locations)
        : w(out), final(locations, 0)
    {
        TraceHeader hdr;
        hdr.test = name;
        for (std::size_t t = 0; t < threads; t++) {
            hdr.threads.push_back(
                TraceThread{"t" + std::to_string(t), t == 0 ? 0 : 1, 0});
        }
        for (std::size_t l = 0; l < locations; l++) {
            hdr.locations.push_back(
                TraceLocation{"x" + std::to_string(l), 0});
        }
        w.header(hdr);
    }

    std::uint64_t
    store(std::size_t t, std::size_t l, std::uint64_t value)
    {
        const std::uint64_t uid = w.store(t, l, value, Semantics::Relaxed,
                                          Scope::Gpu, ProxyKind::Generic);
        w.commit(uid);
        final[l] = value;
        return uid;
    }

    void
    load(std::size_t t, std::size_t l, std::uint64_t value,
         std::uint64_t rf)
    {
        w.load(t, l, value, rf, Semantics::Relaxed, Scope::Gpu,
               ProxyKind::Generic, "");
    }

    void fence(std::size_t t, Scope scope) { w.fence(t, Semantics::Sc, scope); }

    std::string
    finish()
    {
        litmus::Outcome outcome;
        for (std::size_t l = 0; l < final.size(); l++)
            outcome.memory["x" + std::to_string(l)] = final[l];
        w.finish(outcome);
        return out.str();
    }

  private:
    std::ostringstream out;
    TraceWriter w;
    std::vector<std::uint64_t> final;
};

/*
 * The scripted cases below each end in a forbidden fenced
 * store-buffering shape whose fence-SC cycle is only visible if one
 * co-predecessor edge reached the reading thread's last fence. Thread
 * 1 writes x1 (`later`), fences (b), then writes x0; thread 0
 * overwrites x0 (`w`), so b is owed an edge into thread 0's next SC
 * fence; thread 0 then fences and reads the initial x1, which forces
 * that fence before b.
 */

/** An unscoped SC fence between thread 0's fences breaks the chain. */
std::string
unscopedFenceBreaksChain()
{
    Script s("unscoped_fence_breaks_chain", 2, 2);
    s.store(1, 1, 1);
    s.fence(1, Scope::Gpu);
    s.store(1, 0, 1);
    s.store(0, 0, 2);
    s.fence(0, Scope::Gpu);
    s.fence(0, Scope::None);
    s.fence(0, Scope::Gpu);
    s.load(0, 1, 0, 1);
    return s.finish();
}

/**
 * Eight observed writes push b out of thread 0's communication set;
 * with @p privateCommits more commits of its own, the pending-write
 * list overflows too.
 */
std::string
communicationSetOverflow(const std::string &name,
                         std::size_t privateCommits)
{
    Script s(name, 3, 11);
    s.fence(0, Scope::Gpu);
    s.store(1, 1, 1);
    s.fence(1, Scope::Gpu);
    s.store(1, 0, 1);
    s.store(0, 0, 2);
    std::vector<std::uint64_t> observed;
    for (std::size_t i = 0; i < 8; i++) {
        s.fence(2, Scope::Gpu);
        observed.push_back(s.store(2, 3 + i, 1));
    }
    for (std::size_t i = 0; i < 8; i++)
        s.load(0, 3 + i, 1, observed[i]);
    for (std::size_t i = 0; i < privateCommits; i++)
        s.store(0, 2, i + 1);
    s.fence(0, Scope::Gpu);
    s.load(0, 1, 0, 1);
    return s.finish();
}

/**
 * Thread 1's fence r reads x0 before thread 0's overwrite after
 * already being forced after thread 0's fence, so the direct edge from
 * r is cyclic and refused; r still owes thread 0's next fence an edge
 * through the overwrite, which a second read then closes into a cycle.
 */
std::string
readerFenceAfterRefusedEdge()
{
    Script s("reader_fence_after_refused_edge", 2, 3);
    s.store(0, 0, 1);
    s.fence(0, Scope::Gpu);
    const std::uint64_t m = s.store(0, 2, 1);
    s.store(1, 1, 1);
    s.load(1, 2, 1, m);
    s.fence(1, Scope::Gpu);
    s.load(1, 0, 0, 0);
    s.fence(0, Scope::Gpu);
    s.load(0, 1, 0, 1);
    return s.finish();
}

/** Every golden trace, generated and scripted, by name. */
std::vector<std::pair<std::string, std::string>>
goldenTraces()
{
    std::vector<std::pair<std::string, std::string>> traces;
    for (const GenSpec &spec : goldenCases())
        traces.emplace_back(spec.name, generate(spec));
    traces.emplace_back("unscoped_fence_breaks_chain",
                        unscopedFenceBreaksChain());
    traces.emplace_back(
        "communication_set_overflow",
        communicationSetOverflow("communication_set_overflow", 0));
    traces.emplace_back(
        "pending_write_list_overflow",
        communicationSetOverflow("pending_write_list_overflow", 70));
    traces.emplace_back("reader_fence_after_refused_edge",
                        readerFenceAfterRefusedEdge());
    return traces;
}

std::string
transcript()
{
    std::ostringstream os;
    for (const auto &[name, trace] : goldenTraces()) {
        for (std::size_t window : {2, 3, 8, 64, 100, 130, 1024}) {
            conform::ConformOptions opts;
            opts.window = window;
            std::istringstream in(trace);
            const conform::ConformReport report =
                conform::checkTrace(in, opts);
            os << "== " << name << " window=" << window << '\n'
               << report.summary() << "  retired_fences="
               << report.stats.retiredFences << '\n';
        }
    }
    return os.str();
}

TEST(ConformGolden, SummariesAreByteIdentical)
{
    const std::string actual = transcript();
    std::ifstream golden(std::string(MIXEDPROXY_CONFORM_GOLDEN_DIR) +
                         "/checker_summaries.golden");
    ASSERT_TRUE(golden.is_open());
    std::ostringstream expected;
    expected << golden.rdbuf();
    if (actual != expected.str()) {
        std::ofstream("conform_golden.actual") << actual;
        FAIL() << "checker output drifted from the golden; the actual "
                  "transcript is in conform_golden.actual (see the file "
                  "comment to regenerate)";
    }
}

/** The suite must keep exercising both verdicts and fence-SC cycles. */
TEST(ConformGolden, CasesCoverViolationsAndConformance)
{
    bool sawConformant = false;
    bool sawFenceSc = false;
    for (const auto &[name, trace] : goldenTraces()) {
        std::istringstream in(trace);
        const conform::ConformReport report = conform::checkTrace(in);
        EXPECT_EQ(report.stats.byKind[(std::size_t)
                                          conform::ViolationKind::Malformed],
                  0u)
            << name << '\n'
            << report.summary();
        sawConformant |= report.conformant();
        sawFenceSc |= report.stats.byKind[(
                          std::size_t)conform::ViolationKind::FenceSc] > 0;
    }
    EXPECT_TRUE(sawConformant);
    EXPECT_TRUE(sawFenceSc);
}

/** Each scripted case ends in the fence-SC cycle it was written for. */
TEST(ConformGolden, ScriptedCasesConvictFenceSc)
{
    for (const std::string &trace :
         {unscopedFenceBreaksChain(),
          communicationSetOverflow("communication_set_overflow", 0),
          communicationSetOverflow("pending_write_list_overflow", 70),
          readerFenceAfterRefusedEdge()}) {
        std::istringstream in(trace);
        const conform::ConformReport report = conform::checkTrace(in);
        EXPECT_GE(report.stats.byKind[(std::size_t)
                                          conform::ViolationKind::FenceSc],
                  1u)
            << report.summary();
    }
}

} // namespace
