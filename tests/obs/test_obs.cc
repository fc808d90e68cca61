/**
 * @file
 * Tests for the observability core: the Session value type, the
 * ScopedSession thread-local binding, the disabled fast path (no
 * recording at all), and RAII span nesting.
 */

#include <gtest/gtest.h>

#include "obs/obs.hh"
#include "support/chrome_trace.hh"

namespace {

using namespace mixedproxy::obs;
using mixedproxy::test_support::TraceCapture;

TEST(Obs, NothingBoundByDefaultRecordsNothing)
{
    ASSERT_FALSE(enabled());
    ASSERT_EQ(current(), nullptr);
    {
        Span span("phase");
        count("counter", 5);
        gauge("gauge", 1.0);
    }
    // Nothing listened, so there is nowhere the data could have gone;
    // the assertions above are really about not crashing and the
    // binding staying null.
    EXPECT_FALSE(enabled());
}

TEST(Obs, EnabledSpanRecordsEventAndTimerSample)
{
    TraceCapture capture;
    Session session;
    session.tracer = &capture.tracer;
    session.enable();
    {
        ScopedSession bind(&session);
        Span span("phase");
    }
    session.disable();
    const auto spans = capture.spans();
    ASSERT_EQ(spans.size(), 1u);
    const auto &e = spans[0];
    EXPECT_EQ(e.name, "phase");
    EXPECT_EQ(e.depth, 0);
    EXPECT_GE(e.durationUs, 0.0);
    EXPECT_GE(e.startUs, 0.0);
    EXPECT_EQ(session.metrics.timer("phase").count, 1u);
}

TEST(Obs, SessionWithoutTracerRecordsOnlyTheTimerSample)
{
    Session session;
    session.enable();
    {
        ScopedSession bind(&session);
        Span span("phase");
    }
    session.disable();
    EXPECT_EQ(session.tracer, nullptr);
    EXPECT_EQ(session.metrics.timer("phase").count, 1u);
}

TEST(Obs, SpansNestAndRecordDepths)
{
    TraceCapture capture;
    Session session;
    session.tracer = &capture.tracer;
    session.enable();
    {
        ScopedSession bind(&session);
        Span outer("outer");
        {
            Span inner("inner");
        }
        {
            Span inner2("inner");
        }
    }
    session.disable();
    // Completion order: inner, inner, outer.
    const auto events = capture.spans();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].name, "inner");
    EXPECT_EQ(events[0].depth, 1);
    EXPECT_EQ(events[1].name, "inner");
    EXPECT_EQ(events[1].depth, 1);
    EXPECT_EQ(events[2].name, "outer");
    EXPECT_EQ(events[2].depth, 0);
    // Children are contained in the parent's [start, start+duration].
    const auto &outer_ev = events[2];
    for (std::size_t i = 0; i < 2; i++) {
        const auto &child = events[i];
        EXPECT_GE(child.startUs, outer_ev.startUs);
        EXPECT_LE(child.startUs + child.durationUs,
                  outer_ev.startUs + outer_ev.durationUs + 1e-3);
    }
    EXPECT_EQ(session.metrics.timer("inner").count, 2u);
    EXPECT_EQ(session.metrics.timer("outer").count, 1u);
}

TEST(Obs, CountAndGaugeWhileEnabled)
{
    Session session;
    session.enable();
    {
        ScopedSession bind(&session);
        count("hits");
        count("hits", 2);
        gauge("ratio", 0.75);
    }
    session.disable();
    EXPECT_EQ(session.metrics.counter("hits"), 3u);
    EXPECT_DOUBLE_EQ(session.metrics.gauge("ratio"), 0.75);
}

TEST(Obs, EnableResetsPreviousSession)
{
    TraceCapture capture;
    Session session;
    session.tracer = &capture.tracer;
    session.enable();
    {
        ScopedSession bind(&session);
        count("old");
        Span span("old_phase");
    }
    session.enable(); // fresh timeline
    EXPECT_TRUE(session.metrics.empty());
    // The tracer is where spans go, not data: re-enabling keeps it, and
    // what it already wrote stays written.
    EXPECT_EQ(session.tracer, &capture.tracer);
    session.disable();
    EXPECT_EQ(capture.spans().size(), 1u);
}

TEST(Obs, DataStaysReadableAfterDisable)
{
    Session session;
    session.enable();
    {
        ScopedSession bind(&session);
        count("kept");
    }
    session.disable();
    EXPECT_EQ(session.metrics.counter("kept"), 1u);
}

TEST(Obs, SpanOutlivingDisableBalancesDepthWithoutRecording)
{
    TraceCapture capture;
    Session session;
    session.tracer = &capture.tracer;
    session.enable();
    {
        ScopedSession bind(&session);
        Span outer("outer");
        session.disable();
    } // outer destructs disabled: depth must rebalance, no event
    EXPECT_TRUE(capture.spans().empty());
    EXPECT_EQ(session.depth, 0);
}

TEST(Obs, SpanOpenedBeforeBindingStaysDead)
{
    TraceCapture capture;
    Session session;
    session.tracer = &capture.tracer;
    session.enable();
    {
        Span dead("dead"); // constructed with nothing bound
        ScopedSession bind(&session);
    } // never live, records nothing even though a session is now bound
    EXPECT_EQ(session.metrics.timer("dead").count, 0u);
    session.disable();
    EXPECT_TRUE(capture.spans().empty());
}

TEST(Obs, ScopedSessionRoutesRecordingToAValueSession)
{
    TraceCapture capture;
    Session session;
    session.tracer = &capture.tracer;
    session.enable();
    {
        ScopedSession bind(&session);
        ASSERT_TRUE(enabled());
        EXPECT_EQ(current(), &session);
        count("local");
        Span span("local_phase");
    }
    session.disable();
    // Everything landed in the value; the binding is gone afterwards.
    EXPECT_EQ(session.metrics.counter("local"), 1u);
    EXPECT_EQ(session.metrics.timer("local_phase").count, 1u);
    EXPECT_EQ(capture.spans().size(), 1u);
    EXPECT_FALSE(enabled());
}

TEST(Obs, ScopedSessionRestoresThePreviousBinding)
{
    Session outer_session, inner_session;
    outer_session.enable();
    inner_session.enable();
    {
        ScopedSession outer_bind(&outer_session);
        {
            ScopedSession inner_bind(&inner_session);
            count("inner");
        }
        count("outer"); // back on the outer session
    }
    outer_session.disable();
    inner_session.disable();
    EXPECT_EQ(inner_session.metrics.counter("inner"), 1u);
    EXPECT_EQ(inner_session.metrics.counter("outer"), 0u);
    EXPECT_EQ(outer_session.metrics.counter("outer"), 1u);
    EXPECT_EQ(outer_session.metrics.counter("inner"), 0u);
}

TEST(Obs, NullScopedSessionKeepsAmbientBinding)
{
    Session session;
    session.enable();
    {
        ScopedSession bind(&session);
        {
            ScopedSession noop(nullptr); // no-op: ambient stays
            count("ambient");
        }
    }
    session.disable();
    EXPECT_EQ(session.metrics.counter("ambient"), 1u);
}

TEST(Obs, DisabledScopedSessionSuppressesRecording)
{
    Session ambient;
    ambient.enable();
    Session silent; // explicitly passed but not enabled
    {
        ScopedSession bind(&ambient);
        {
            ScopedSession suppress(&silent);
            EXPECT_FALSE(enabled());
            count("suppressed");
        }
    }
    ambient.disable();
    // Neither the value session nor the ambient one recorded: an
    // explicitly passed session is the sink, period.
    EXPECT_TRUE(silent.metrics.empty());
    EXPECT_EQ(ambient.metrics.counter("suppressed"), 0u);
}

TEST(Obs, SessionThreadIdTagsItsSpans)
{
    TraceCapture capture;
    Session session;
    session.threadId = 7;
    session.tracer = &capture.tracer;
    session.enable();
    {
        ScopedSession bind(&session);
        Span span("lane");
    }
    session.disable();
    const auto spans = capture.spans();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].tid, 7);
}

TEST(Obs, EnableWithOriginSharesTheParentTimeline)
{
    TraceCapture capture;
    Session parent;
    parent.tracer = &capture.tracer;
    parent.enable();
    {
        ScopedSession bind(&parent);
        Span span("parent_phase");
    }
    Session worker;
    worker.tracer = parent.tracer;
    worker.enableWithOrigin(parent.origin());
    {
        ScopedSession bind(&worker);
        Span span("worker_phase");
    }
    // The worker span started after the parent span did, on the same
    // clock — the shared trace lines up on one timeline.
    const auto spans = capture.spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].name, "parent_phase");
    EXPECT_EQ(spans[1].name, "worker_phase");
    EXPECT_GE(spans[1].startUs,
              spans[0].startUs + spans[0].durationUs - 1e-3);
}

} // namespace
