/**
 * @file
 * Tests for the daemon protocol: request parsing, error responses,
 * cache_hit reporting, ordered responses, shutdown, and the per-request
 * session merge into the server's parent session.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.hh"
#include "engine/eventlog.hh"
#include "engine/json.hh"
#include "engine/service.hh"
#include "obs/obs.hh"
#include "support/chrome_trace.hh"

namespace {

using namespace mixedproxy;
using namespace mixedproxy::engine;

std::unique_ptr<json::Value>
response(Engine &engine, const std::string &line,
         bool *shutdown = nullptr)
{
    std::string text = handleRequestLine(engine, line, shutdown);
    auto doc = json::parse(text);
    EXPECT_TRUE(doc && doc->isObject()) << text;
    return doc;
}

const std::string kMpSource = "name: wire_mp\n"
                              "thread t0 cta 0 gpu 0:\n"
                              "  st.global.u32 [x], 1\n"
                              "  st.release.gpu.u32 [f], 1\n"
                              "thread t1 cta 1 gpu 0:\n"
                              "  ld.acquire.gpu.u32 r0, [f]\n"
                              "  ld.global.u32 r1, [x]\n"
                              "require: !(t1.r0 == 1) || t1.r1 == 1\n";

std::string
jsonQuote(const std::string &text)
{
    return json::Value::makeString(text).dump();
}

TEST(Service, PingPongAndShutdown)
{
    Engine engine;
    auto pong = response(engine, "{\"cmd\":\"ping\",\"id\":7}");
    EXPECT_TRUE(pong->boolOr("ok", false));
    EXPECT_TRUE(pong->boolOr("pong", false));
    EXPECT_EQ(pong->uintOr("id", 0), 7u);

    bool shutdown = false;
    auto bye = response(engine, "{\"cmd\":\"shutdown\"}", &shutdown);
    EXPECT_TRUE(shutdown);
    EXPECT_TRUE(bye->boolOr("ok", false));
}

TEST(Service, MalformedRequestsGetErrorResponses)
{
    Engine engine;
    EXPECT_FALSE(response(engine, "not json")->boolOr("ok", true));
    EXPECT_FALSE(response(engine, "[1,2]")->boolOr("ok", true));
    EXPECT_FALSE(
        response(engine, "{\"cmd\":\"frobnicate\"}")->boolOr("ok", true));
    EXPECT_FALSE(response(engine, "{}")->boolOr("ok", true));

    auto unknown =
        response(engine, "{\"id\":3,\"test\":\"no_such_test\"}");
    EXPECT_FALSE(unknown->boolOr("ok", true));
    EXPECT_EQ(unknown->uintOr("id", 0), 3u);
    EXPECT_NE(unknown->stringOr("error", "").find("no_such_test"),
              std::string::npos);

    auto badSource =
        response(engine, "{\"litmus\":\"thread t0 oops\"}");
    EXPECT_FALSE(badSource->boolOr("ok", true));
}

TEST(Service, BuiltInTestCheckReportsCacheHits)
{
    Engine engine;
    const std::string line = "{\"test\":\"fig9_message_passing\"}";
    auto cold = response(engine, line);
    EXPECT_TRUE(cold->boolOr("ok", false));
    EXPECT_TRUE(cold->boolOr("passed", false));
    EXPECT_FALSE(cold->boolOr("cache_hit", true));
    EXPECT_NE(cold->stringOr("report", "").find("fig9_message_passing"),
              std::string::npos);

    auto warm = response(engine, line);
    EXPECT_TRUE(warm->boolOr("cache_hit", false));
    EXPECT_EQ(warm->stringOr("report", ""),
              cold->stringOr("report", ""));
}

TEST(Service, InlineLitmusSourceHitsAcrossSpellings)
{
    Engine engine;
    auto cold = response(engine, "{\"litmus\":" + jsonQuote(kMpSource) + "}");
    ASSERT_TRUE(cold->boolOr("ok", false));
    EXPECT_FALSE(cold->boolOr("cache_hit", true));

    // The same program with every identifier renamed is a cache hit
    // (the instruction decoder requires r-prefixed register names).
    std::string renamedSource = "name: wire_mp_renamed\n"
                                "thread alpha cta 0 gpu 0:\n"
                                "  st.global.u32 [data], 1\n"
                                "  st.release.gpu.u32 [flag], 1\n"
                                "thread beta cta 1 gpu 0:\n"
                                "  ld.acquire.gpu.u32 r7, [flag]\n"
                                "  ld.global.u32 r9, [data]\n"
                                "require: !(beta.r7 == 1) || beta.r9 == 1\n";
    auto warm =
        response(engine, "{\"litmus\":" + jsonQuote(renamedSource) + "}");
    ASSERT_TRUE(warm->boolOr("ok", false));
    EXPECT_TRUE(warm->boolOr("cache_hit", false));
    EXPECT_TRUE(warm->boolOr("passed", false));
    // Each report speaks its request's own namespace.
    EXPECT_NE(warm->stringOr("report", "").find("beta.r7"),
              std::string::npos);
}

TEST(Service, ModeAndOptionKnobsAreHonored)
{
    Engine engine;
    auto ptx60 = response(
        engine, "{\"test\":\"fig9_message_passing\",\"mode\":\"ptx60\"}");
    EXPECT_TRUE(ptx60->boolOr("ok", false));
    EXPECT_NE(ptx60->stringOr("report", "").find("[ptx60]"),
              std::string::npos);

    auto bad = response(
        engine, "{\"test\":\"fig9_message_passing\",\"mode\":\"ptx99\"}");
    EXPECT_FALSE(bad->boolOr("ok", true));

    auto witness = response(
        engine,
        "{\"test\":\"fig9_message_passing\",\"witness\":true}");
    EXPECT_TRUE(witness->boolOr("ok", false));
    EXPECT_FALSE(witness->boolOr("cache_hit", true));
}

TEST(Service, MistypedRequestFieldsAreErrorsNamingTheField)
{
    Engine engine;
    // A known field with the wrong type, a negative, fractional or
    // out-of-range number is an error, not a silent default: 1e30 once
    // cast to a garbage budget and answered ok with 0 outcomes.
    const std::string uintError = "must be a non-negative integer";
    const std::vector<std::pair<std::string, std::string>> cases = {
        {"\"max_executions\":1e30", "'max_executions' " + uintError},
        {"\"max_executions\":18446744073709551616",
         "'max_executions' " + uintError},
        {"\"max_executions\":-1", "'max_executions' " + uintError},
        {"\"max_executions\":2.5", "'max_executions' " + uintError},
        {"\"max_executions\":\"3\"", "'max_executions' " + uintError},
        {"\"sim_iterations\":1e3", "'sim_iterations' " + uintError},
        {"\"witness\":\"yes\"", "'witness' must be a boolean"},
        {"\"lint_only\":1", "'lint_only' must be a boolean"},
        {"\"mode\":60", "'mode' must be a string"},
        {"\"presolve\":true", "'presolve' must be a string"},
    };
    for (const auto &[field, message] : cases) {
        auto reply = response(
            engine, "{\"test\":\"fig9_message_passing\",\"id\":5," +
                        field + "}");
        EXPECT_FALSE(reply->boolOr("ok", true)) << field;
        EXPECT_EQ(reply->uintOr("id", 0), 5u) << field;
        EXPECT_EQ(reply->stringOr("error", ""), message) << field;
    }
    auto conform = response(
        engine, "{\"cmd\":\"conform\",\"path\":\"unused.trace\","
                "\"max_violations\":-3}");
    EXPECT_FALSE(conform->boolOr("ok", true));
    EXPECT_EQ(conform->stringOr("error", ""),
              "'max_violations' " + uintError);

    // The same fields, well typed, are honored.
    auto fine = response(engine,
                         "{\"test\":\"fig9_message_passing\","
                         "\"max_executions\":18446744073709551615,"
                         "\"witness\":false,\"mode\":\"ptx75\","
                         "\"presolve\":\"off\"}");
    EXPECT_TRUE(fine->boolOr("ok", false));
}

TEST(Service, OverCapLineIsAnErrorAndServingContinues)
{
    Engine engine;
    // A ping padded to one byte over the line cap: discarded unread,
    // answered in its turn with an error, and the next line is served.
    std::string input = "{\"cmd\":\"ping\",\"id\":0}";
    input.resize(json::kMaxLineBytes + 1, ' ');
    input += "\n{\"cmd\":\"ping\",\"id\":1}\n";
    std::istringstream in(std::move(input));
    std::ostringstream out;
    std::ostringstream err;
    ServeOptions options;
    options.jobs = 1;
    ASSERT_EQ(serve(engine, options, in, out, err), 0);

    std::istringstream lines(out.str());
    std::string first, second;
    ASSERT_TRUE(std::getline(lines, first));
    ASSERT_TRUE(std::getline(lines, second));
    auto bad = json::parse(first);
    auto pong = json::parse(second);
    ASSERT_TRUE(bad && pong) << first << "\n" << second;
    EXPECT_FALSE(bad->boolOr("ok", true));
    EXPECT_EQ(bad->stringOr("error", ""),
              "bad request: line longer than " +
                  std::to_string(json::kMaxLineBytes) + " bytes");
    EXPECT_TRUE(pong->boolOr("pong", false));
    EXPECT_EQ(pong->uintOr("id", 0), 1u);
}

TEST(Service, ServeStreamsResponsesInRequestOrder)
{
    Engine engine;
    std::istringstream in("{\"cmd\":\"ping\",\"id\":0}\n"
                          "{\"test\":\"fig9_message_passing\",\"id\":1}\n"
                          "{\"test\":\"fig9_message_passing\",\"id\":2}\n"
                          "{\"cmd\":\"ping\",\"id\":3}\n");
    std::ostringstream out;
    std::ostringstream err;
    ServeOptions options;
    options.jobs = 4;
    EXPECT_EQ(serve(engine, options, in, out, err), 0);
    EXPECT_EQ(err.str(), "");

    std::vector<std::string> lines;
    std::istringstream reader(out.str());
    for (std::string line; std::getline(reader, line);)
        lines.push_back(line);
    ASSERT_EQ(lines.size(), 4u);
    for (std::size_t i = 0; i < lines.size(); i++) {
        auto doc = json::parse(lines[i]);
        ASSERT_TRUE(doc) << lines[i];
        EXPECT_EQ(doc->uintOr("id", 99), i) << lines[i];
        EXPECT_TRUE(doc->boolOr("ok", false));
    }
    // Identical requests coalesce: exactly one computes the verdict
    // and the other reports the hit — but either may have run first,
    // so only the hit *count* is deterministic.
    auto first = json::parse(lines[1]);
    auto second = json::parse(lines[2]);
    EXPECT_NE(first->boolOr("cache_hit", false),
              second->boolOr("cache_hit", true));
}

TEST(Service, ShutdownStopsTheStreamEarly)
{
    Engine engine;
    std::istringstream in("{\"cmd\":\"shutdown\",\"id\":0}\n");
    std::ostringstream out;
    std::ostringstream err;
    ServeOptions options;
    EXPECT_EQ(serve(engine, options, in, out, err), 0);
    auto doc = json::parse(out.str().substr(0, out.str().find('\n')));
    ASSERT_TRUE(doc);
    EXPECT_TRUE(doc->boolOr("shutdown", false));
}

TEST(Service, OpIsAnAliasForCmd)
{
    Engine engine;
    auto pong = response(engine, "{\"op\":\"ping\",\"id\":4}");
    EXPECT_TRUE(pong->boolOr("pong", false));
    EXPECT_EQ(pong->uintOr("id", 0), 4u);
    // "cmd" wins when both are present.
    auto both =
        response(engine, "{\"cmd\":\"ping\",\"op\":\"shutdown\"}");
    EXPECT_TRUE(both->boolOr("pong", false));
}

TEST(Service, MetricsOpNeedsAServiceState)
{
    // Direct handleRequestLine calls (no daemon) have no live state to
    // report; the op must fail cleanly instead of inventing numbers.
    Engine engine;
    auto bare = response(engine, "{\"op\":\"metrics\"}");
    EXPECT_FALSE(bare->boolOr("ok", true));
    EXPECT_NE(bare->stringOr("error", "").find("not available"),
              std::string::npos);
}

TEST(Service, MetricsOpReportsLiveServiceState)
{
    Engine engine;
    // jobs=1 serializes the stream, so by the time the metrics request
    // runs, both earlier requests have finished.
    std::istringstream in(
        "{\"test\":\"fig9_message_passing\",\"id\":0}\n"
        "{\"test\":\"fig9_message_passing\",\"id\":1}\n"
        "{\"op\":\"metrics\",\"id\":2}\n");
    std::ostringstream out;
    std::ostringstream err;
    ServeOptions options;
    options.jobs = 1;
    ASSERT_EQ(serve(engine, options, in, out, err), 0);

    std::vector<std::string> lines;
    std::istringstream reader(out.str());
    for (std::string line; std::getline(reader, line);)
        lines.push_back(line);
    ASSERT_EQ(lines.size(), 3u);
    auto metrics = json::parse(lines[2]);
    ASSERT_TRUE(metrics) << lines[2];
    EXPECT_TRUE(metrics->boolOr("ok", false));
    EXPECT_GE(metrics->find("uptime_ms")->number, 0.0);
    // The metrics request itself is in flight and already counted.
    EXPECT_EQ(metrics->uintOr("requests_total", 0), 3u);
    EXPECT_EQ(metrics->uintOr("errors_total", 99), 0u);
    EXPECT_GE(metrics->uintOr("in_flight", 0), 1u);

    const json::Value *build = metrics->find("build");
    ASSERT_TRUE(build && build->isObject());
    for (const char *key : {"git_sha", "compiler", "build_type"})
        EXPECT_FALSE(build->stringOr(key, "").empty()) << key;

    // Merged per-request counters: one miss, one hit.
    const json::Value *counters = metrics->find("counters");
    ASSERT_TRUE(counters && counters->isObject());
    EXPECT_EQ(counters->uintOr("engine.cache.miss", 0), 1u);
    EXPECT_EQ(counters->uintOr("engine.cache.hit", 0), 1u);

    // Per-op latency summaries for the finished check requests.
    const json::Value *ops = metrics->find("ops");
    ASSERT_TRUE(ops && ops->isObject());
    const json::Value *check = ops->find("check");
    ASSERT_TRUE(check && check->isObject());
    EXPECT_EQ(check->uintOr("count", 0), 2u);
    EXPECT_GE(check->find("total_ms")->number, 0.0);
    EXPECT_TRUE(check->find("p95_ms") != nullptr);
}

TEST(Service, RetiredEnumerationFieldsAreIgnored)
{
    Engine engine;
    // Old clients may still send the retired enumeration-core and
    // sampling fields; the daemon ignores them, whatever their value,
    // and answers exactly as it does without them.
    std::istringstream in(
        "{\"test\":\"fig9_message_passing\",\"id\":0}\n"
        "{\"test\":\"fig9_message_passing\","
        "\"enum_core\":\"legacy\",\"profile_enum\":1,\"id\":1}\n"
        "{\"test\":\"fig9_message_passing\","
        "\"enum_core\":\"bogus\",\"profile_enum\":\"x\",\"id\":2}\n");
    std::ostringstream out;
    std::ostringstream err;
    ServeOptions options;
    options.jobs = 1;
    ASSERT_EQ(serve(engine, options, in, out, err), 0);

    std::istringstream lines(out.str());
    std::vector<std::unique_ptr<json::Value>> docs;
    for (std::string line; std::getline(lines, line);)
        docs.push_back(json::parse(line));
    ASSERT_EQ(docs.size(), 3u);
    for (const auto &doc : docs) {
        ASSERT_TRUE(doc);
        EXPECT_TRUE(doc->boolOr("ok", false));
        EXPECT_EQ(doc->stringOr("report", "a"),
                  docs[0]->stringOr("report", "b"));
    }
    // Same fingerprint: the later requests are cache hits.
    EXPECT_TRUE(docs[1]->boolOr("cache_hit", false));
    EXPECT_TRUE(docs[2]->boolOr("cache_hit", false));
}

TEST(Service, LintOnlyAnswersWithTheAnalyzerReportAlone)
{
    Engine engine;
    // "lint_only" runs the static analyzer and nothing else: the
    // response bytes are the same whatever check, lint, sim or witness
    // knobs ride along, and "passed" is the analyzer's cleanliness.
    const std::string racy =
        "{\"cache_hit\":false,\"ok\":true,\"passed\":false,\"report\":"
        "\"lint fig4_const_alias_generic_fence: 1 error(s), 0 "
        "warning(s), 0 note(s) [mixed-proxy]\\n  error [E001 "
        "mixed-proxy-race]: location 'global_ptr' is accessed via "
        "generic(va0) and constant(cta0) with no interposed proxy fence "
        "on any base-causality path\\n    at 'st.global.u32 "
        "[global_ptr], 42' (t0 #0)\\n    and 'ld.const.u32 r1, "
        "[const_array]' (t0 #2)\\n    hint: insert fence.proxy.constant "
        "in CTA 0 of GPU 0 (or a wider-scope variant) on the "
        "base-causality path\\n\"}";
    const std::string request =
        "{\"test\":\"fig4_const_alias_generic_fence\",\"lint_only\":true";
    for (const std::string extra :
         {"", ",\"lint\":true", ",\"sim\":true,\"sim_iterations\":5",
          ",\"witness\":true", ",\"lint\":true,\"sim\":true,\"witness\":true",
          ",\"mode\":\"ptx60\",\"compare\":true,\"dot\":true"}) {
        EXPECT_EQ(handleRequestLine(engine, request + extra + "}"), racy)
            << extra;
    }

    EXPECT_EQ(handleRequestLine(
                  engine,
                  "{\"test\":\"fig9_message_passing\",\"lint_only\":true}"),
              "{\"cache_hit\":false,\"ok\":true,\"passed\":true,\"report\":"
              "\"lint fig9_message_passing: 0 error(s), 0 warning(s), 0 "
              "note(s) [single-proxy]\\n\"}");

    // "lint_only":false is the plain check, with "lint" appending the
    // findings after the check summary.
    auto checked =
        response(engine, "{\"test\":\"fig9_message_passing\","
                         "\"lint_only\":false,\"lint\":true}");
    EXPECT_TRUE(checked->boolOr("passed", false));
    const std::string report = checked->stringOr("report", "");
    EXPECT_EQ(report.rfind("=== fig9_message_passing ===\n", 0), 0u)
        << report;
    EXPECT_NE(report.find("\n\nlint fig9_message_passing: 0 error(s)"),
              std::string::npos)
        << report;
}

TEST(Service, DeeplyNestedRequestIsAnErrorAndServingContinues)
{
    Engine engine;
    // 400k open brackets once overflowed the parser's stack and took
    // the daemon down; now it is one error response and the next
    // request is still answered.
    std::istringstream in(std::string(400000, '[') + "\n" +
                          "{\"cmd\":\"ping\",\"id\":1}\n");
    std::ostringstream out;
    std::ostringstream err;
    ServeOptions options;
    options.jobs = 1;
    ASSERT_EQ(serve(engine, options, in, out, err), 0);

    std::istringstream lines(out.str());
    std::string first, second;
    ASSERT_TRUE(std::getline(lines, first));
    ASSERT_TRUE(std::getline(lines, second));
    auto bad = json::parse(first);
    auto pong = json::parse(second);
    ASSERT_TRUE(bad && pong) << first << "\n" << second;
    EXPECT_FALSE(bad->boolOr("ok", true));
    EXPECT_NE(bad->stringOr("error", "").find("nesting deeper than"),
              std::string::npos)
        << first;
    EXPECT_TRUE(pong->boolOr("ok", false));
    EXPECT_TRUE(pong->boolOr("pong", false));
    EXPECT_EQ(pong->uintOr("id", 0), 1u);
}

TEST(Service, ErrorRequestsCountIntoErrorsTotal)
{
    Engine engine;
    std::istringstream in("{\"cmd\":\"frobnicate\",\"id\":0}\n"
                          "{\"op\":\"metrics\",\"id\":1}\n");
    std::ostringstream out;
    std::ostringstream err;
    ServeOptions options;
    options.jobs = 1;
    ASSERT_EQ(serve(engine, options, in, out, err), 0);
    std::string second = out.str().substr(out.str().find('\n') + 1);
    auto metrics = json::parse(second.substr(0, second.find('\n')));
    ASSERT_TRUE(metrics);
    EXPECT_EQ(metrics->uintOr("errors_total", 0), 1u);
}

TEST(Service, JsonlLogValidatesSchemaAndRequestIds)
{
    const std::filesystem::path path =
        std::filesystem::temp_directory_path() / "mp_service_log.jsonl";
    std::filesystem::remove(path);
    {
        Engine engine;
        std::istringstream in(
            "{\"test\":\"fig9_message_passing\",\"id\":0}\n"
            "{\"test\":\"fig9_message_passing\",\"id\":1}\n"
            "{\"test\":\"fig9_message_passing\",\"id\":2}\n"
            "{\"cmd\":\"frobnicate\",\"id\":3}\n");
        std::ostringstream out;
        std::ostringstream err;
        ServeOptions options;
        options.jobs = 4;
        options.logJsonPath = path.string();
        ASSERT_EQ(serve(engine, options, in, out, err), 0);
    }

    std::ifstream log(path);
    std::set<std::uint64_t> started;
    std::set<std::uint64_t> finished;
    std::size_t cache_hits = 0;
    std::size_t errors = 0;
    bool saw_server_start = false;
    for (std::string line; std::getline(log, line);) {
        auto record = json::parse(line);
        ASSERT_TRUE(record && record->isObject()) << line;
        // Every record carries the schema tag, a timestamp, a level,
        // and an event name.
        EXPECT_EQ(record->stringOr("schema", ""), kEventLogSchema)
            << line;
        EXPECT_GT(record->uintOr("ts_ms", 0), 0u) << line;
        const std::string level = record->stringOr("level", "");
        EXPECT_TRUE(level == "info" || level == "error") << line;
        const std::string event = record->stringOr("event", "");
        if (event == "server.start") {
            saw_server_start = true;
            EXPECT_EQ(record->uintOr("jobs", 0), 4u);
            continue;
        }
        const std::uint64_t id = record->uintOr("request_id", 0);
        EXPECT_GE(id, 1u) << line;
        EXPECT_LE(id, 4u) << line;
        if (event == "request.start") {
            EXPECT_TRUE(started.insert(id).second) << line;
        } else if (event == "request.finish") {
            EXPECT_TRUE(finished.insert(id).second) << line;
            EXPECT_EQ(record->stringOr("op", ""), "check") << line;
            EXPECT_TRUE(record->find("duration_ms") != nullptr) << line;
            EXPECT_TRUE(record->find("cache_hit") != nullptr) << line;
        } else if (event == "request.cache_hit") {
            cache_hits++;
        } else if (event == "request.error") {
            errors++;
            EXPECT_EQ(level, "error") << line;
            EXPECT_FALSE(record->stringOr("error", "").empty()) << line;
        } else {
            ADD_FAILURE() << "unknown event in " << line;
        }
    }
    EXPECT_TRUE(saw_server_start);
    // Ids are assigned in arrival order, exactly once each.
    EXPECT_EQ(started, (std::set<std::uint64_t>{1, 2, 3, 4}));
    EXPECT_EQ(finished.size(), 3u);
    EXPECT_EQ(cache_hits, 2u);
    EXPECT_EQ(errors, 1u);
    std::filesystem::remove(path);
}

TEST(Service, RequestIdsStampParentTraceAcrossJobs)
{
    Engine engine;
    test_support::TraceCapture capture;
    obs::Session parent;
    parent.tracer = &capture.tracer;
    parent.enable();
    {
        std::istringstream in(
            "{\"test\":\"fig9_message_passing\"}\n"
            "{\"test\":\"fig2_iriw_weak\"}\n"
            "{\"test\":\"fig8a_alias_fence\"}\n");
        std::ostringstream out;
        std::ostringstream err;
        ServeOptions options;
        options.jobs = 4;
        obs::ScopedSession bind(&parent);
        ASSERT_EQ(serve(engine, options, in, out, err), 0);
    }
    parent.disable();
    std::set<std::uint64_t> ids;
    for (const auto &span : capture.spans()) {
        EXPECT_NE(span.requestId, 0u) << span.name;
        ids.insert(span.requestId);
    }
    // Every span of every request is stamped; the three requests get
    // ids 1..3 in arrival order regardless of worker interleaving.
    EXPECT_EQ(ids, (std::set<std::uint64_t>{1, 2, 3}));
}

TEST(Service, TracedParentGetsEachRequestsSpansUnderItsId)
{
    Engine engine;
    test_support::TraceCapture capture;
    obs::Session parent;
    parent.tracer = &capture.tracer;
    parent.enable();
    {
        // Ids follow arrival order: 1 and 3 check, 2 is a ping, which
        // opens no span.
        std::istringstream in("{\"test\":\"fig9_message_passing\"}\n"
                              "{\"cmd\":\"ping\"}\n"
                              "{\"test\":\"fig2_iriw_weak\"}\n");
        std::ostringstream out;
        std::ostringstream err;
        ServeOptions options;
        options.jobs = 2;
        obs::ScopedSession bind(&parent);
        ASSERT_EQ(serve(engine, options, in, out, err), 0);
    }
    parent.disable();
    std::map<std::uint64_t, std::vector<test_support::WrittenSpan>> byId;
    for (auto &span : capture.spans())
        byId[span.requestId].push_back(std::move(span));
    ASSERT_EQ(byId.size(), 2u);
    for (std::uint64_t id : {1u, 3u}) {
        const auto &spans = byId[id];
        // One request span at the root of the request's session, and
        // every other span of the request nested inside it.
        const auto root = std::find_if(
            spans.begin(), spans.end(),
            [](const auto &span) { return span.name == "engine.request"; });
        ASSERT_NE(root, spans.end()) << "request " << id;
        EXPECT_EQ(root->depth, 0);
        std::size_t checks = 0;
        for (const auto &span : spans) {
            if (&span == &*root)
                continue;
            EXPECT_NE(span.name, "engine.request") << "request " << id;
            EXPECT_GE(span.depth, 1) << span.name;
            EXPECT_GE(span.startUs, root->startUs - 1e-3) << span.name;
            EXPECT_LE(span.startUs + span.durationUs,
                      root->startUs + root->durationUs + 1e-3)
                << span.name;
            checks += span.name == "check";
        }
        EXPECT_EQ(checks, 1u) << "request " << id;
    }
}

TEST(Service, RequestMetricsMergeIntoTheParentSession)
{
    Engine engine;
    obs::Session parent;
    parent.enable();
    {
        std::istringstream in(
            "{\"test\":\"fig9_message_passing\"}\n"
            "{\"test\":\"fig9_message_passing\"}\n"
            "{\"test\":\"fig9_message_passing\"}\n");
        std::ostringstream out;
        std::ostringstream err;
        ServeOptions options;
        options.jobs = 2;
        obs::ScopedSession bind(&parent);
        EXPECT_EQ(serve(engine, options, in, out, err), 0);
    }
    parent.disable();
    EXPECT_EQ(parent.metrics.counter("engine.cache.miss"), 1u);
    EXPECT_EQ(parent.metrics.counter("engine.cache.hit"), 2u);
    EXPECT_GE(parent.metrics.timer("engine.request").count, 3u);
}

} // namespace
