/**
 * @file
 * Tests for the batch runtime: the thread pool runs everything it is
 * given, parallelFor covers every index exactly once and keeps its
 * determinism contract (results by index, per-worker observability
 * sessions merged in order, lowest-index error wins), worker spans are
 * written through the parent's tracer on their own lanes, and the
 * registry merge primitive behaves as documented.
 */

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/obs.hh"
#include "runtime/parallel.hh"
#include "runtime/thread_pool.hh"
#include "support/chrome_trace.hh"

namespace {

using namespace mixedproxy;
using test_support::TraceCapture;
using runtime::parallelFor;
using runtime::ThreadPool;

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    std::atomic<int> ran{0};
    for (int i = 0; i < 100; i++)
        pool.submit([&ran] { ran.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, WaitIsReusableAcrossBatches)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    pool.submit([&ran] { ran.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(ran.load(), 1);
    pool.submit([&ran] { ran.fetch_add(1); });
    pool.submit([&ran] { ran.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(ran.load(), 3);
}

TEST(ThreadPool, ZeroThreadsIsClampedToOne)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 1u);
    std::atomic<int> ran{0};
    pool.submit([&ran] { ran.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPool, WaitRethrowsTaskException)
{
    ThreadPool pool(2);
    pool.submit([] { throw std::runtime_error("task failed"); });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    // The error is consumed; the pool stays usable.
    std::atomic<int> ran{0};
    pool.submit([&ran] { ran.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPool, HardwareThreadsIsAtLeastOne)
{
    EXPECT_GE(ThreadPool::hardwareThreads(), 1u);
}

class ParallelForJobs : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(ParallelForJobs, CoversEveryIndexExactlyOnce)
{
    const std::size_t n = 37;
    std::vector<int> hits(n, 0);
    parallelFor(n, GetParam(), [&](std::size_t i) { hits[i]++; });
    for (std::size_t i = 0; i < n; i++)
        EXPECT_EQ(hits[i], 1) << "index " << i;
}

TEST_P(ParallelForJobs, MergedCountersAreJobsInvariant)
{
    obs::Session session;
    session.enable();
    {
        obs::ScopedSession bind(&session);
        parallelFor(20, GetParam(), [&](std::size_t i) {
            obs::Session *s = obs::current();
            ASSERT_NE(s, nullptr);
            s->metrics.add("work.items");
            s->metrics.add("work.weight", i);
        });
    }
    session.disable();
    EXPECT_EQ(session.metrics.counter("work.items"), 20u);
    EXPECT_EQ(session.metrics.counter("work.weight"), 190u); // 0+..+19
}

TEST_P(ParallelForJobs, BodySessionIsBoundAsCurrent)
{
    obs::Session session;
    session.enable();
    {
        obs::ScopedSession bind(&session);
        parallelFor(8, GetParam(), [&](std::size_t) {
            // The caller's session on the inline path, a worker
            // session merged into it on the parallel one.
            EXPECT_NE(obs::current(), nullptr);
            obs::count("ambient.count");
        });
    }
    session.disable();
    EXPECT_EQ(session.metrics.counter("ambient.count"), 8u);
}

TEST_P(ParallelForJobs, LowestIndexExceptionWins)
{
    try {
        parallelFor(16, GetParam(), [&](std::size_t i) {
            if (i == 3 || i == 11)
                throw std::runtime_error("fail at " +
                                         std::to_string(i));
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "fail at 3");
    }
}

INSTANTIATE_TEST_SUITE_P(Jobs, ParallelForJobs,
                         ::testing::Values(1, 2, 4, 16));

TEST(ParallelFor, NotObservingPassesNullSession)
{
    std::atomic<int> nulls{0};
    parallelFor(8, 4, [&](std::size_t) {
        if (obs::current() == nullptr)
            nulls.fetch_add(1);
    });
    EXPECT_EQ(nulls.load(), 8);
}

TEST(ParallelFor, WorkerSpansCarryDistinctThreadIds)
{
    TraceCapture capture;
    obs::Session session;
    session.tracer = &capture.tracer;
    session.enable();
    // Each index records its worker's lane, so the written tids can be
    // checked against the lane that really ran the span.
    std::vector<int> lane(32, -1);
    {
        obs::ScopedSession bind(&session);
        parallelFor(32, 4, [&](std::size_t i) {
            obs::Span span("unit");
            lane[i] = obs::current()->threadId;
        });
    }
    session.disable();
    const auto spans = capture.spans();
    ASSERT_EQ(spans.size(), 32u);
    std::multiset<int> written;
    for (const auto &span : spans) {
        EXPECT_EQ(span.name, "unit");
        EXPECT_EQ(span.depth, 0);
        EXPECT_GE(span.tid, 1); // workers are numbered from 1
        EXPECT_LE(span.tid, 4);
        written.insert(span.tid);
    }
    EXPECT_EQ(written, std::multiset<int>(lane.begin(), lane.end()));
}

TEST(ParallelFor, NestedWorkerSpansKeepTheirDepthAndOrigin)
{
    TraceCapture capture;
    obs::Session session;
    session.tracer = &capture.tracer;
    session.enable();
    {
        obs::ScopedSession bind(&session);
        obs::Span batch("batch");
        parallelFor(16, 4, [&](std::size_t) {
            obs::Span outer("outer");
            obs::Span inner("inner");
        });
    }
    session.disable();
    const auto spans = capture.spans();
    ASSERT_EQ(spans.size(), 33u);
    const auto batch =
        std::find_if(spans.begin(), spans.end(),
                     [](const auto &span) { return span.name == "batch"; });
    ASSERT_NE(batch, spans.end());
    EXPECT_EQ(batch->tid, 0);
    EXPECT_EQ(batch->depth, 0);
    std::map<std::string, int> count;
    for (const auto &span : spans) {
        count[span.name]++;
        if (span.name == "batch")
            continue;
        // Worker sessions start at depth 0 and share the parent's
        // origin: every worker span lies inside the enclosing batch.
        EXPECT_EQ(span.depth, span.name == "outer" ? 0 : 1);
        EXPECT_GE(span.tid, 1);
        EXPECT_GE(span.startUs, batch->startUs - 1e-3);
        EXPECT_LE(span.startUs + span.durationUs,
                  batch->startUs + batch->durationUs + 1e-3);
    }
    EXPECT_EQ(count["outer"], 16);
    EXPECT_EQ(count["inner"], 16);
}

TEST(ParallelFor, SerialPathRecordsOnMainLane)
{
    TraceCapture capture;
    obs::Session session;
    session.tracer = &capture.tracer;
    session.enable();
    {
        obs::ScopedSession bind(&session);
        parallelFor(3, 1, [&](std::size_t) { obs::Span span("unit"); });
    }
    session.disable();
    const auto spans = capture.spans();
    ASSERT_EQ(spans.size(), 3u);
    for (const auto &span : spans)
        EXPECT_EQ(span.tid, 0);
}

TEST(ParallelFor, DisabledParentSessionRecordsNothing)
{
    TraceCapture capture;
    obs::Session session; // never enabled
    session.tracer = &capture.tracer;
    {
        obs::ScopedSession bind(&session);
        parallelFor(8, 4, [&](std::size_t) {
            EXPECT_EQ(obs::current(), nullptr);
            obs::count("should.not.appear");
            obs::Span span("should.not.appear");
        });
    }
    EXPECT_TRUE(session.metrics.empty());
    EXPECT_TRUE(capture.spans().empty());
}

TEST(MetricsMerge, CountersAddGaugesOverwriteTimersCombine)
{
    obs::MetricsRegistry a;
    a.add("c", 3);
    a.set("g", 1.0);
    a.record("t", 0.5);
    a.record("t", 1.5);

    obs::MetricsRegistry b;
    b.add("c", 4);
    b.add("only_b", 1);
    b.set("g", 2.0);
    b.record("t", 0.25);
    b.record("other", 9.0);

    a.mergeFrom(b);
    EXPECT_EQ(a.counter("c"), 7u);
    EXPECT_EQ(a.counter("only_b"), 1u);
    EXPECT_DOUBLE_EQ(a.gauge("g"), 2.0);

    auto t = a.timer("t");
    EXPECT_EQ(t.count, 3u);
    EXPECT_DOUBLE_EQ(t.total, 2.25);
    EXPECT_DOUBLE_EQ(t.min, 0.25);
    EXPECT_DOUBLE_EQ(t.max, 1.5);
    auto other = a.timer("other");
    EXPECT_EQ(other.count, 1u);
    EXPECT_DOUBLE_EQ(other.max, 9.0);
}

TEST(MetricsMerge, MergeOrderIsPartitionIndependentForAggregates)
{
    // Two different partitions of the same samples merge to the same
    // streaming aggregates — the property the jobs-invariance of
    // --stats-json timer counts rests on.
    obs::MetricsRegistry left1;
    left1.record("t", 1.0);
    left1.record("t", 4.0);
    obs::MetricsRegistry right1;
    right1.record("t", 2.0);

    obs::MetricsRegistry left2;
    left2.record("t", 1.0);
    obs::MetricsRegistry right2;
    right2.record("t", 4.0);
    right2.record("t", 2.0);

    obs::MetricsRegistry merged1;
    merged1.mergeFrom(left1);
    merged1.mergeFrom(right1);
    obs::MetricsRegistry merged2;
    merged2.mergeFrom(left2);
    merged2.mergeFrom(right2);

    auto t1 = merged1.timer("t");
    auto t2 = merged2.timer("t");
    EXPECT_EQ(t1.count, t2.count);
    EXPECT_DOUBLE_EQ(t1.total, t2.total);
    EXPECT_DOUBLE_EQ(t1.min, t2.min);
    EXPECT_DOUBLE_EQ(t1.max, t2.max);
    EXPECT_DOUBLE_EQ(t1.p50, t2.p50); // sorted percentile, under cap
}

TEST(MetricsMerge, SampleRetentionStaysBounded)
{
    obs::MetricsRegistry a;
    obs::MetricsRegistry b;
    for (std::size_t i = 0;
         i < obs::MetricsRegistry::kMaxSamplesPerTimer; i++) {
        a.record("t", 1.0);
        b.record("t", 2.0);
    }
    a.mergeFrom(b);
    auto t = a.timer("t");
    // Every sample is counted in the streaming aggregates...
    EXPECT_EQ(t.count, 2 * obs::MetricsRegistry::kMaxSamplesPerTimer);
    EXPECT_DOUBLE_EQ(t.max, 2.0);
    // ...while the retained-percentile prefix stays bounded (all 1.0
    // here, because a's samples filled the cap first).
    EXPECT_DOUBLE_EQ(t.p95, 1.0);
}

TEST(SharedTracer, SessionsWriteInCompletionOrder)
{
    // Sessions sharing one tracer (as worker and request sessions share
    // their parent's) interleave into one document in the order their
    // spans close, each on its own lane.
    TraceCapture capture;
    obs::Session a;
    obs::Session b;
    a.tracer = b.tracer = &capture.tracer;
    b.threadId = 1;
    a.enable();
    b.enableWithOrigin(a.origin());
    {
        obs::ScopedSession bindA(&a);
        obs::Span first("first");
    }
    {
        obs::ScopedSession bindB(&b);
        obs::Span third("third");
        obs::Span second("second");
    }
    const auto spans = capture.spans();
    ASSERT_EQ(spans.size(), 3u);
    EXPECT_EQ(spans[0].name, "first");
    EXPECT_EQ(spans[0].tid, 0);
    EXPECT_EQ(spans[1].name, "second");
    EXPECT_EQ(spans[1].depth, 1);
    EXPECT_EQ(spans[2].name, "third");
    EXPECT_EQ(spans[2].tid, 1);
}

} // namespace
