/**
 * @file
 * Test helper: read back the Chrome trace_event JSON an obs::Tracer
 * wrote. The document is parsed with the repo's JSON reader
 * (engine::json), and every event is checked against the shape the
 * writer promises, so a malformed trace fails the test that reads it.
 */

#ifndef MIXEDPROXY_TESTS_SUPPORT_CHROME_TRACE_HH
#define MIXEDPROXY_TESTS_SUPPORT_CHROME_TRACE_HH

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/json.hh"
#include "obs/trace.hh"

namespace mixedproxy::test_support {

/** One complete ("X") event as it reads back from a written trace. */
struct WrittenSpan
{
    std::string name;
    double startUs = 0.0;
    double durationUs = 0.0;
    int depth = 0;
    int tid = 0;
    std::uint64_t requestId = 0; ///< 0 when the event carries none
};

/**
 * Parse @p text as a Chrome trace document. A parse error or an event
 * missing a field records a test failure; the events read so far are
 * returned in file order.
 */
inline std::vector<WrittenSpan>
readChromeTrace(const std::string &text)
{
    namespace json = engine::json;
    std::vector<WrittenSpan> spans;
    std::string error;
    auto doc = json::parse(text, &error);
    if (!doc) {
        ADD_FAILURE() << "trace is not JSON: " << error;
        return spans;
    }
    EXPECT_EQ(doc->stringOr("displayTimeUnit", ""), "ms");
    const json::Value *events = doc->find("traceEvents");
    if (!events || events->kind != json::Value::Kind::Array) {
        ADD_FAILURE() << "trace has no traceEvents array";
        return spans;
    }
    for (const json::Value &event : events->array) {
        EXPECT_EQ(event.stringOr("ph", ""), "X");
        EXPECT_EQ(event.stringOr("cat", ""), "mixedproxy");
        EXPECT_EQ(event.uintOr("pid", 1), 0u);
        const json::Value *ts = event.find("ts");
        const json::Value *dur = event.find("dur");
        const json::Value *args = event.find("args");
        const json::Value *depth = args ? args->find("depth") : nullptr;
        if (!ts || !dur || !depth || !event.find("tid")) {
            ADD_FAILURE() << "incomplete event " << event.dump();
            continue;
        }
        WrittenSpan span;
        span.name = event.stringOr("name", "");
        span.startUs = ts->number;
        span.durationUs = dur->number;
        span.depth = static_cast<int>(depth->number);
        span.tid = static_cast<int>(event.uintOr("tid", 0));
        span.requestId = args->uintOr("request_id", 0);
        spans.push_back(std::move(span));
    }
    return spans;
}

/**
 * An obs::Tracer writing into memory: attach `&capture.tracer` to a
 * session, then read the events back with spans().
 */
class TraceCapture
{
    std::ostringstream _text;

  public:
    obs::Tracer tracer{_text};

    /** Close the document and read its events back. */
    std::vector<WrittenSpan>
    spans()
    {
        EXPECT_TRUE(tracer.finish());
        return readChromeTrace(_text.str());
    }
};

} // namespace mixedproxy::test_support

#endif // MIXEDPROXY_TESTS_SUPPORT_CHROME_TRACE_HH
