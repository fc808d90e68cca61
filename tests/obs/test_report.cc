/**
 * @file
 * Tests for the exporters: JSON escaping, Chrome trace_event output,
 * the structured stats report, and the --timing table. The two JSON
 * emitters are hand-rolled, so every document is run through the
 * library's strict JSON parser (engine::json).
 */

#include <sstream>

#include <gtest/gtest.h>

#include "engine/json.hh"
#include "obs/report.hh"
#include "obs/trace.hh"

namespace {

using namespace mixedproxy::obs;
namespace json = mixedproxy::engine::json;
using json::Value;

/** Member @p key of @p v, or a null value when absent. */
const Value &
at(const Value &v, const std::string &key)
{
    static const Value null_value;
    const Value *member = v.find(key);
    return member ? *member : null_value;
}

bool
has(const Value &v, const std::string &key)
{
    return v.find(key) != nullptr;
}

TEST(JsonEscape, EscapesSpecialCharacters)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
    EXPECT_EQ(jsonEscape(std::string("a\x01")), "a\\u0001");
    // The JSON short forms, not \u0008 / \u000c: daemon responses are
    // escaped by this function too.
    EXPECT_EQ(jsonEscape("a\bb\fc"), "a\\bb\\fc");
}

/** What a Tracer writes for @p events, closed. */
std::string
chromeTrace(std::initializer_list<TraceEvent> events)
{
    std::ostringstream out;
    Tracer tracer(out);
    for (const TraceEvent &event : events)
        tracer.write(event);
    EXPECT_TRUE(tracer.finish());
    return out.str();
}

TEST(ChromeTrace, EmptyTracerIsValidJson)
{
    std::string error;
    auto doc = json::parse(chromeTrace({}), &error);
    ASSERT_TRUE(doc) << error;
    EXPECT_TRUE(at(*doc, "traceEvents").kind == Value::Kind::Array);
    EXPECT_EQ(at(*doc, "traceEvents").array.size(), 0u);
}

TEST(ChromeTrace, EventsCarryChromeFields)
{
    std::string error;
    auto doc = json::parse(chromeTrace({{"check", 10.0, 250.5, 0},
                                        {"check.derived", 20.0, 100.0, 1}}),
                           &error);
    ASSERT_TRUE(doc) << error;
    EXPECT_EQ(at(*doc, "displayTimeUnit").string, "ms");
    const auto &events = at(*doc, "traceEvents").array;
    ASSERT_EQ(events.size(), 2u);
    const Value &e = events[0];
    EXPECT_EQ(at(e, "name").string, "check");
    EXPECT_EQ(at(e, "ph").string, "X");
    EXPECT_EQ(at(e, "cat").string, "mixedproxy");
    EXPECT_DOUBLE_EQ(at(e, "pid").number, 0.0);
    EXPECT_DOUBLE_EQ(at(e, "tid").number, 0.0);
    EXPECT_NEAR(at(e, "ts").number, 10.0, 1e-6);
    EXPECT_NEAR(at(e, "dur").number, 250.5, 1e-6);
    EXPECT_NEAR(at(at(e, "args"), "depth").number, 0.0, 1e-9);
    EXPECT_NEAR(at(at(events[1], "args"), "depth").number, 1.0, 1e-9);
}

TEST(ChromeTrace, EscapesEventNames)
{
    std::string error;
    auto doc = json::parse(chromeTrace({{"weird\"name\n", 0.0, 1.0, 0}}),
                           &error);
    ASSERT_TRUE(doc) << error;
    EXPECT_EQ(at(at(*doc, "traceEvents").array[0], "name").string,
              "weird\"name\n");
}

TEST(ChromeTrace, FinishReportsAFailedStream)
{
    std::ostringstream out;
    Tracer tracer(out);
    out.setstate(std::ios::badbit);
    tracer.write({"check", 0.0, 1.0, 0});
    EXPECT_FALSE(tracer.finish());
    EXPECT_FALSE(tracer.finish()); // closes once, keeps reporting
}

TEST(StatsJson, EmptyRegistryIsValidAndComplete)
{
    MetricsRegistry reg;
    std::string error;
    auto doc = json::parse(statsJson(reg), &error);
    ASSERT_TRUE(doc) << error;
    EXPECT_EQ(at(*doc, "schema").string, "mixedproxy.stats.v2");
    EXPECT_TRUE(at(*doc, "meta").isObject());
    EXPECT_TRUE(at(*doc, "build").isObject());
    EXPECT_TRUE(at(*doc, "counters").isObject());
    EXPECT_TRUE(at(*doc, "gauges").isObject());
    EXPECT_TRUE(at(*doc, "timers").isObject());
    EXPECT_TRUE(at(*doc, "enum_profile").isObject());
    for (const char *section :
         {"rejections", "depth_histogram", "branching"}) {
        EXPECT_TRUE(at(at(*doc, "enum_profile"), section).isObject())
            << section;
    }
    EXPECT_EQ(at(*doc, "enum_profile").object.size(), 3u);
}

TEST(StatsJson, BuildProvenanceHasAllFields)
{
    MetricsRegistry reg;
    std::string error;
    auto doc = json::parse(statsJson(reg), &error);
    ASSERT_TRUE(doc) << error;
    const Value &build = at(*doc, "build");
    for (const char *key : {"git_sha", "compiler", "build_type"}) {
        ASSERT_TRUE(has(build, key)) << key;
        EXPECT_TRUE(at(build, key).isString()) << key;
        EXPECT_FALSE(at(build, key).string.empty()) << key;
    }
}

TEST(StatsJson, EnumCountersAreLiftedIntoEnumProfile)
{
    MetricsRegistry reg;
    reg.add("checker.candidates", 10);
    reg.add("checker.enum.reject.causality_b", 3);
    reg.add("checker.enum.reject.sc_per_location", 2);
    reg.add("checker.enum.depth.2", 5);
    reg.add("checker.enum.depth.overflow", 1);
    reg.add("checker.enum.rf.reads", 2);
    reg.add("checker.enum.co.orders", 6);
    std::string error;
    auto doc = json::parse(statsJson(reg), &error);
    ASSERT_TRUE(doc) << error;

    const Value &profile = at(*doc, "enum_profile");
    EXPECT_DOUBLE_EQ(at(at(profile, "rejections"), "causality_b").number,
                     3.0);
    EXPECT_DOUBLE_EQ(
        at(at(profile, "rejections"), "sc_per_location").number, 2.0);
    EXPECT_DOUBLE_EQ(at(at(profile, "depth_histogram"), "2").number, 5.0);
    EXPECT_DOUBLE_EQ(at(at(profile, "depth_histogram"), "overflow").number,
                     1.0);
    EXPECT_DOUBLE_EQ(at(at(profile, "branching"), "rf.reads").number, 2.0);
    EXPECT_DOUBLE_EQ(at(at(profile, "branching"), "co.orders").number,
                     6.0);

    // Lifted counters must not be duplicated in the flat section;
    // everything else stays where it was.
    const Value &counters = at(*doc, "counters");
    EXPECT_FALSE(has(counters, "checker.enum.reject.causality_b"));
    EXPECT_FALSE(has(counters, "checker.enum.depth.2"));
    EXPECT_TRUE(has(counters, "checker.candidates"));
}

TEST(StatsJson, RendersAllMetricKindsAndMeta)
{
    MetricsRegistry reg;
    reg.add("checker.candidates", 64);
    reg.set("sim.mean_latency_cycles", 3.5);
    reg.record("check", 0.002);
    reg.record("check", 0.004);
    std::map<std::string, std::string> meta{{"tool", "nvlitmus"},
                                            {"model", "ptx75"}};
    std::string error;
    auto doc = json::parse(statsJson(reg, meta), &error);
    ASSERT_TRUE(doc) << error;
    EXPECT_EQ(at(at(*doc, "meta"), "tool").string, "nvlitmus");
    EXPECT_EQ(at(at(*doc, "meta"), "model").string, "ptx75");
    EXPECT_DOUBLE_EQ(at(at(*doc, "counters"), "checker.candidates").number,
                     64.0);
    EXPECT_NEAR(at(at(*doc, "gauges"), "sim.mean_latency_cycles").number,
                3.5, 1e-6);
    const Value &timer = at(at(*doc, "timers"), "check");
    ASSERT_TRUE(timer.isObject());
    for (const char *key : {"count", "total_ms", "min_ms", "mean_ms",
                            "p50_ms", "p95_ms", "max_ms"}) {
        EXPECT_TRUE(has(timer, key)) << "missing timer key " << key;
    }
    EXPECT_DOUBLE_EQ(at(timer, "count").number, 2.0);
    EXPECT_NEAR(at(timer, "total_ms").number, 6.0, 1e-3);
    EXPECT_NEAR(at(timer, "min_ms").number, 2.0, 1e-3);
    EXPECT_NEAR(at(timer, "max_ms").number, 4.0, 1e-3);
    EXPECT_NEAR(at(timer, "mean_ms").number, 3.0, 1e-3);
}

TEST(StatsJson, EscapesMetaAndNames)
{
    MetricsRegistry reg;
    reg.add("odd\"counter", 1);
    std::map<std::string, std::string> meta{{"k\"ey", "v\\alue"}};
    std::string error;
    auto doc = json::parse(statsJson(reg, meta), &error);
    ASSERT_TRUE(doc) << error;
    EXPECT_EQ(at(at(*doc, "meta"), "k\"ey").string, "v\\alue");
    EXPECT_TRUE(has(at(*doc, "counters"), "odd\"counter"));
}

TEST(TimingTable, ListsPhasesByTotalDescendingAndCounters)
{
    MetricsRegistry reg;
    reg.record("fast", 0.001);
    reg.record("slow", 0.100);
    reg.add("checker.candidates", 9);
    std::string table = timingTable(reg);
    EXPECT_NE(table.find("phase"), std::string::npos);
    auto slow_pos = table.find("slow");
    auto fast_pos = table.find("fast");
    ASSERT_NE(slow_pos, std::string::npos);
    ASSERT_NE(fast_pos, std::string::npos);
    EXPECT_LT(slow_pos, fast_pos); // sorted by total time, descending
    EXPECT_NE(table.find("checker.candidates"), std::string::npos);
}

TEST(TimingTable, EmptyRegistryExplainsItself)
{
    MetricsRegistry reg;
    EXPECT_NE(timingTable(reg).find("(no phases recorded)"),
              std::string::npos);
}

TEST(ChromeTrace, RequestIdIsAnEventArgument)
{
    std::string error;
    auto doc = json::parse(chromeTrace({{"engine.request", 1.0, 2.0, 0, 3, 42},
                                        {"parse", 1.0, 2.0, 0, 0, 0}}),
                           &error);
    ASSERT_TRUE(doc) << error;
    const auto &events = at(*doc, "traceEvents").array;
    ASSERT_EQ(events.size(), 2u);
    EXPECT_NEAR(at(at(events[0], "args"), "request_id").number, 42.0,
                1e-9);
    // Id zero means "not a daemon request" and is omitted entirely.
    EXPECT_FALSE(has(at(events[1], "args"), "request_id"));
}

TEST(EnumProfileTable, RendersEverySection)
{
    MetricsRegistry reg;
    reg.add("checker.candidates", 12);
    reg.add("checker.consistent", 4);
    reg.add("checker.enum.reject.causality_b", 5);
    reg.add("checker.enum.reject.no_thin_air", 2);
    reg.add("checker.enum.depth.3", 12);
    reg.add("checker.enum.rf.reads", 3);
    reg.add("checker.enum.rf.source_slots", 9);
    reg.add("checker.enum.co.locations", 2);
    reg.add("checker.enum.co.orders", 4);
    reg.add("checker.fastpath.hits", 6);
    std::string table = enumProfileTable(reg);
    EXPECT_NE(table.find("enumeration profile"), std::string::npos);
    EXPECT_NE(table.find("causality_b"), std::string::npos);
    EXPECT_NE(table.find("no_thin_air"), std::string::npos);
    EXPECT_NE(table.find("depth 3"), std::string::npos);
    EXPECT_NE(table.find("rf sources per read"), std::string::npos);
    EXPECT_NE(table.find("(9/3)"), std::string::npos);
    EXPECT_NE(table.find("co orders per location"), std::string::npos);
    EXPECT_NE(table.find("fastpath hits"), std::string::npos);
}

TEST(Prometheus, RendersAllMetricKindsAndBuildInfo)
{
    MetricsRegistry reg;
    reg.add("checker.candidates", 64);
    reg.set("sim.mean_latency_cycles", 3.5);
    reg.record("check", 0.002);
    std::map<std::string, std::string> meta{{"tool", "nvlitmus"}};
    std::string text = prometheusText(reg, meta);
    EXPECT_NE(text.find("mixedproxy_build_info{"), std::string::npos);
    EXPECT_NE(text.find("git_sha=\""), std::string::npos);
    EXPECT_NE(text.find("tool=\"nvlitmus\""), std::string::npos);
    EXPECT_NE(text.find("mixedproxy_checker_candidates_total 64"),
              std::string::npos);
    EXPECT_NE(text.find("mixedproxy_sim_mean_latency_cycles"),
              std::string::npos);
    EXPECT_NE(text.find("mixedproxy_check_seconds{quantile=\"0.5\"}"),
              std::string::npos);
    EXPECT_NE(text.find("mixedproxy_check_seconds_count 1"),
              std::string::npos);
    // Every line is either a comment or "name[{labels}] value".
    std::istringstream lines(text);
    for (std::string line; std::getline(lines, line);) {
        ASSERT_FALSE(line.empty());
        if (line[0] == '#')
            continue;
        EXPECT_NE(line.find(' '), std::string::npos) << line;
    }
}

TEST(Prometheus, SanitizesMetricNames)
{
    MetricsRegistry reg;
    reg.add("weird.name-with/chars", 1);
    std::string text = prometheusText(reg);
    EXPECT_NE(text.find("mixedproxy_weird_name_with_chars_total 1"),
              std::string::npos);
}

} // namespace
