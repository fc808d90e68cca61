/**
 * @file
 * Tests for the engine-level trace-conformance operation:
 * RequestKind::Conform through Engine::submit,
 * the rendered report, and the daemon's "conform" command (file path
 * and inline trace variants, violation attribution, error paths).
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "conform/fault.hh"
#include "engine/engine.hh"
#include "engine/json.hh"
#include "engine/request.hh"
#include "engine/service.hh"
#include "litmus/registry.hh"
#include "microarch/simulator.hh"

namespace {

using namespace mixedproxy;
using namespace mixedproxy::engine;

std::string
recordTrace(const std::string &testName, std::uint64_t seed)
{
    std::ostringstream out;
    microarch::Simulator(microarch::SimOptions{})
        .runTraced(litmus::testByName(testName), seed, out);
    return out.str();
}

/** A conform request for an inline trace (set conform.traceText). */
Request
conformRequest()
{
    Request request;
    request.kind = RequestKind::Conform;
    return request;
}

std::unique_ptr<json::Value>
response(Engine &engine, const std::string &line)
{
    std::string text = handleRequestLine(engine, line, nullptr);
    auto doc = json::parse(text);
    EXPECT_TRUE(doc && doc->isObject()) << text;
    return doc;
}

std::string
jsonQuote(const std::string &text)
{
    return json::Value::makeString(text).dump();
}

TEST(ConformOp, InlineTraceVerdict)
{
    Engine engine;
    Request request = conformRequest();
    request.conform.traceText = recordTrace("fig9_message_passing", 3);

    Verdict verdict = engine.submit(request);
    ASSERT_TRUE(verdict.conform.has_value());
    EXPECT_TRUE(verdict.conform->conformant());
    EXPECT_TRUE(verdict.passed());
    EXPECT_EQ(verdict.conform->test, "fig9_message_passing");

    std::string report = renderReport(request, verdict);
    EXPECT_NE(report.find("conform"), std::string::npos);
    EXPECT_NE(report.find("CONFORMANT"), std::string::npos);
}

TEST(ConformOp, FaultedTraceFailsWithAttribution)
{
    Engine engine;
    const std::string trace = recordTrace("fig9_message_passing", 3);
    auto faulted =
        conform::injectFault(trace, conform::FaultKind::Corrupt, 1);
    ASSERT_TRUE(faulted.has_value());

    Request request = conformRequest();
    request.conform.traceText = *faulted;
    Verdict verdict = engine.submit(request);
    ASSERT_TRUE(verdict.conform.has_value());
    EXPECT_FALSE(verdict.conform->conformant());
    EXPECT_FALSE(verdict.passed());
    const auto rfValue = static_cast<std::size_t>(
        conform::ViolationKind::RfValue);
    EXPECT_GT(verdict.conform->stats.byKind[rfValue], 0u);
}

TEST(ConformOp, ConformVerdictsAreNeverCached)
{
    // A trace is one concrete execution, not a canonicalizable litmus
    // test — resubmitting the same trace must re-check, not hit the
    // verdict cache.
    Engine engine;
    Request request = conformRequest();
    request.conform.traceText = recordTrace("fig9_message_passing", 3);
    engine.submit(request);
    Verdict again = engine.submit(request);
    EXPECT_FALSE(again.cacheHit);
}

TEST(ConformOp, DaemonConformPathAndInline)
{
    Engine engine;
    const std::string trace = recordTrace("coww_same_thread", 9);

    const auto path = std::filesystem::temp_directory_path() /
                      "mp_test_conform_op.trace";
    {
        std::ofstream file(path);
        file << trace;
    }

    auto byPath = response(
        engine, "{\"cmd\":\"conform\",\"id\":1,\"path\":" +
                    jsonQuote(path.string()) + "}");
    EXPECT_TRUE(byPath->boolOr("ok", false));
    EXPECT_TRUE(byPath->boolOr("conformant", false));
    EXPECT_EQ(byPath->stringOr("test", ""), "coww_same_thread");
    EXPECT_GT(byPath->uintOr("events", 0), 0u);
    EXPECT_EQ(byPath->uintOr("violations", 1), 0u);
    std::filesystem::remove(path);

    auto faulted =
        conform::injectFault(trace, conform::FaultKind::Reorder, 1);
    ASSERT_TRUE(faulted.has_value());
    auto inline_ = response(
        engine, "{\"cmd\":\"conform\",\"id\":2,\"trace\":" +
                    jsonQuote(*faulted) + "}");
    EXPECT_TRUE(inline_->boolOr("ok", false));
    EXPECT_FALSE(inline_->boolOr("conformant", true));
    EXPECT_GT(inline_->uintOr("violations", 0), 0u);
    const json::Value *byKind = inline_->find("violations_by_kind");
    ASSERT_TRUE(byKind && byKind->isObject());
    EXPECT_GT(byKind->uintOr("coherence", 0), 0u);
}

TEST(ConformOp, DaemonConformErrorPaths)
{
    Engine engine;
    // Neither "path" nor "trace" supplied.
    EXPECT_FALSE(response(engine, "{\"cmd\":\"conform\",\"id\":3}")
                     ->boolOr("ok", true));
    // Unreadable path.
    EXPECT_FALSE(
        response(engine, "{\"cmd\":\"conform\",\"id\":4,\"path\":"
                         "\"/nonexistent/trace.jsonl\"}")
            ->boolOr("ok", true));
}

/**
 * An out-of-range window is a per-request error: the daemon replies
 * ok:false and keeps serving (a later ping is still answered) instead
 * of dying in the checker's constructor.
 */
TEST(ConformOp, DaemonRejectsBadWindowAndKeepsServing)
{
    const std::string trace =
        jsonQuote(recordTrace("fig9_message_passing", 3));
    std::string script;
    for (const char *window :
         {"0", "1", "16385", "18446744073709551615", "-4", "\"64\"",
          "2.5"}) {
        script += "{\"cmd\":\"conform\",\"trace\":" + trace +
                  ",\"window\":" + window + "}\n";
    }
    script += "{\"cmd\":\"conform\",\"trace\":" + trace +
              ",\"window\":2}\n";
    script += "{\"cmd\":\"ping\"}\n";

    Engine engine;
    std::istringstream in(script);
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(serve(engine, ServeOptions{}, in, out, err), 0);

    std::vector<std::unique_ptr<json::Value>> replies;
    std::istringstream reader(out.str());
    for (std::string line; std::getline(reader, line);)
        replies.push_back(json::parse(line));
    ASSERT_EQ(replies.size(), 9u) << out.str();
    for (std::size_t i = 0; i < 7; i++) {
        ASSERT_TRUE(replies[i]);
        EXPECT_FALSE(replies[i]->boolOr("ok", true)) << i;
        EXPECT_NE(replies[i]->stringOr("error", "").find("'window'"),
                  std::string::npos)
            << i;
    }
    // The smallest legal window still checks the trace.
    EXPECT_TRUE(replies[7]->boolOr("ok", false));
    EXPECT_TRUE(replies[7]->boolOr("conformant", false));
    EXPECT_TRUE(replies[8]->boolOr("ok", false));
}

/** Engine callers that skip request decoding get a FatalError too. */
TEST(ConformOp, EngineRejectsBadWindow)
{
    Engine engine;
    Request request = conformRequest();
    request.conform.traceText = recordTrace("fig9_message_passing", 3);
    for (std::size_t window :
         {std::size_t{0}, std::size_t{1}, conform::kMaxWindow + 1}) {
        request.conform.window = window;
        EXPECT_THROW(engine.submit(request), FatalError) << window;
    }
    request.conform.window = conform::kMaxWindow;
    EXPECT_TRUE(engine.submit(request).passed());
}

} // namespace
