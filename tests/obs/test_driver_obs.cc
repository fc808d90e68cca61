/**
 * @file
 * End-to-end tests for the driver's observability flags: --stats-json
 * writes a parseable structured report with the documented metric
 * names, --trace-out writes loadable Chrome trace JSON, --timing
 * prints the per-phase table, and unwritable sinks are usage errors.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "engine/json.hh"
#include "nvlitmus/driver.hh"
#include "obs/obs.hh"

namespace {

using namespace mixedproxy;
using namespace mixedproxy::nvlitmus;
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

int
run(const std::vector<std::string> &args, std::string *out_text = nullptr,
    std::string *err_text = nullptr)
{
    std::ostringstream out;
    std::ostringstream err;
    int code = runCli(args, out, err);
    if (out_text)
        *out_text = out.str();
    if (err_text)
        *err_text = err.str();
    return code;
}

/** Unique temp path, removed on destruction. */
class TempFile
{
  public:
    explicit TempFile(const std::string &stem)
        : _path(std::filesystem::temp_directory_path() /
                ("mp_obs_test_" + stem))
    {
        std::filesystem::remove(_path);
    }

    ~TempFile() { std::filesystem::remove(_path); }

    const std::filesystem::path &path() const { return _path; }

    std::string contents() const
    {
        std::ifstream in(_path);
        std::ostringstream os;
        os << in.rdbuf();
        return os.str();
    }

  private:
    std::filesystem::path _path;
};

TEST(DriverObs, StatsJsonHasDocumentedCheckerMetrics)
{
    TempFile stats("stats.json");
    std::string out;
    ASSERT_EQ(run({"--stats-json=" + stats.path().string(),
                   "fig9_message_passing"},
                  &out),
              0);
    ASSERT_TRUE(std::filesystem::exists(stats.path()));
    std::string error;
    auto doc = json::parse(stats.contents(), &error);
    ASSERT_TRUE(doc) << error;
    EXPECT_EQ(at(*doc, "schema").string, "mixedproxy.stats.v2");
    EXPECT_EQ(at(at(*doc, "meta"), "tool").string, "nvlitmus");
    EXPECT_EQ(at(at(*doc, "meta"), "model").string, "ptx75");
    // The stable checker metric names (docs/observability.md).
    const Value &counters = at(*doc, "counters");
    for (const char *name :
         {"checker.rf_assignments", "checker.candidates",
          "checker.consistent"}) {
        EXPECT_TRUE(has(counters, name)) << "missing counter " << name;
        EXPECT_GT(at(counters, name).number, 0.0) << name;
    }
    // The layered derived-relation engine only counts *productive*
    // observation-fixpoint passes: zero here (no atomic reads in
    // fig9_message_passing), and always strictly below the number of
    // rf assignments.
    ASSERT_TRUE(has(counters, "checker.fixpoint.iterations"));
    EXPECT_LT(at(counters, "checker.fixpoint.iterations").number,
              at(counters, "checker.rf_assignments").number);
    // The layer counters account the incremental core's delta work.
    for (const char *name :
         {"checker.layer.base_reuse", "checker.layer.rf_delta",
          "checker.layer.rf_prefix_reject",
          "checker.layer.co_prefix_reject"}) {
        EXPECT_TRUE(has(counters, name)) << "missing counter " << name;
    }
    EXPECT_GT(at(counters, "checker.layer.base_reuse").number, 0.0);
    // Every rf assignment either hits or misses the single-proxy fast
    // path — the split must account for all of them.
    EXPECT_DOUBLE_EQ(at(counters, "checker.fastpath.hits").number +
                         at(counters, "checker.fastpath.misses").number,
                     at(counters, "checker.rf_assignments").number);
    // Edge totals are collected when the obs session is attached.
    EXPECT_GT(at(counters, "checker.edges.cause").number, 0.0);
    // Phase timers exist for the whole check and its inner phases.
    const Value &timers = at(*doc, "timers");
    for (const char *name :
         {"parse", "check", "check.expand", "check.derived",
          "check.enumerate", "check.assertions"}) {
        ASSERT_TRUE(has(timers, name)) << "missing timer " << name;
        EXPECT_GE(at(at(timers, name), "count").number, 1.0) << name;
    }
    // The report on stdout is unaffected by the sink.
    EXPECT_NE(out.find("fig9_message_passing"), std::string::npos);
}

TEST(DriverObs, TraceOutWritesChromeTraceJson)
{
    TempFile trace("trace.json");
    ASSERT_EQ(
        run({"--trace-out=" + trace.path().string(), "fig2_iriw_weak"}),
        0);
    std::string error;
    auto doc = json::parse(trace.contents(), &error);
    ASSERT_TRUE(doc) << error;
    const auto &events = at(*doc, "traceEvents").array;
    ASSERT_FALSE(events.empty());
    bool saw_check = false;
    for (const Value &e : events) {
        EXPECT_EQ(at(e, "ph").string, "X");
        EXPECT_GE(at(e, "ts").number, 0.0);
        EXPECT_GE(at(e, "dur").number, 0.0);
        if (at(e, "name").string == "check")
            saw_check = true;
    }
    EXPECT_TRUE(saw_check);
}

TEST(DriverObs, TimingPrintsPhaseTableToStderr)
{
    std::string out;
    std::string err;
    ASSERT_EQ(run({"--timing", "fig9_message_passing"}, &out, &err), 0);
    EXPECT_NE(err.find("phase"), std::string::npos);
    EXPECT_NE(err.find("check"), std::string::npos);
    EXPECT_NE(err.find("counters:"), std::string::npos);
    EXPECT_NE(err.find("checker.candidates"), std::string::npos);
    // The table goes to stderr only; stdout keeps the report.
    EXPECT_EQ(out.find("counters:"), std::string::npos);
}

TEST(DriverObs, SimulationAndLintMetricsReachStatsJson)
{
    TempFile stats("sim_stats.json");
    ASSERT_EQ(run({"--stats-json=" + stats.path().string(),
                   "--simulate=50", "--lint", "fig9_message_passing"}),
              0);
    std::string error;
    auto doc = json::parse(stats.contents(), &error);
    ASSERT_TRUE(doc) << error;
    EXPECT_GT(at(at(*doc, "counters"), "sim.schedules").number, 0.0);
    EXPECT_GT(at(at(*doc, "counters"), "analysis.runs").number, 0.0);
    EXPECT_TRUE(has(at(*doc, "timers"), "sim"));
    EXPECT_TRUE(has(at(*doc, "timers"), "lint"));
}

TEST(DriverObs, UnwritableSinkIsUsageError)
{
    std::string err;
    EXPECT_EQ(run({"--stats-json=/nonexistent_dir_mp/x.json",
                   "fig9_message_passing"},
                  nullptr, &err),
              2);
    EXPECT_NE(err.find("cannot write"), std::string::npos);
    EXPECT_EQ(
        run({"--trace-out=/nonexistent_dir_mp/x.json", "fig2_iriw_weak"},
            nullptr, &err),
        2);
}

TEST(DriverObs, StatsJsonCarriesEnumProfileAndBuild)
{
    TempFile stats("enum_stats.json");
    ASSERT_EQ(run({"--stats-json=" + stats.path().string(),
                   "fig4_const_alias_nofence"}),
              0);
    std::string error;
    auto doc = json::parse(stats.contents(), &error);
    ASSERT_TRUE(doc) << error;
    EXPECT_FALSE(at(at(*doc, "build"), "git_sha").string.empty());
    const Value &profile = at(*doc, "enum_profile");
    // The depth histogram covers every examined candidate.
    double depth_sum = 0.0;
    for (const auto &[bucket, value] :
         at(profile, "depth_histogram").object) {
        (void)bucket;
        depth_sum += value.number;
    }
    EXPECT_DOUBLE_EQ(
        depth_sum, at(at(*doc, "counters"), "checker.candidates").number);
    // Candidate-level rejections account for candidates - consistent.
    double reject_sum = 0.0;
    for (const char *axiom : {"causality_b", "sc_per_location",
                              "atomicity", "fence_sc"}) {
        if (has(at(profile, "rejections"), axiom))
            reject_sum += at(at(profile, "rejections"), axiom).number;
    }
    EXPECT_DOUBLE_EQ(
        reject_sum,
        at(at(*doc, "counters"), "checker.candidates").number -
            at(at(*doc, "counters"), "checker.consistent").number);
    // Branching raw sums are present for presentation-time quotients.
    EXPECT_GT(at(at(profile, "branching"), "rf.reads").number, 0.0);
    EXPECT_GT(at(at(profile, "branching"), "rf.source_slots").number, 0.0);
}

TEST(DriverObs, ProfileEnumPrintsTable)
{
    std::string out;
    std::string err;
    ASSERT_EQ(run({"--profile-enum", "fig9_message_passing"}, &out, &err),
              0);
    EXPECT_NE(err.find("enumeration profile"), std::string::npos);
    EXPECT_NE(err.find("first failing axiom"), std::string::npos);
    EXPECT_NE(err.find("candidates by rf depth"), std::string::npos);
    EXPECT_NE(err.find("co orders per location"), std::string::npos);
    // The table goes to stderr only; stdout keeps the report, which is
    // the same as without the flag.
    std::string plain;
    ASSERT_EQ(run({"fig9_message_passing"}, &plain), 0);
    EXPECT_EQ(out, plain);
}

TEST(DriverObs, MetricsOutWritesPrometheusText)
{
    TempFile metrics("metrics.prom");
    ASSERT_EQ(run({"--metrics-out=" + metrics.path().string(),
                   "fig9_message_passing"}),
              0);
    std::string text = metrics.contents();
    EXPECT_NE(text.find("mixedproxy_build_info{"), std::string::npos);
    EXPECT_NE(text.find("tool=\"nvlitmus\""), std::string::npos);
    EXPECT_NE(text.find("mixedproxy_checker_candidates_total"),
              std::string::npos);
    EXPECT_NE(text.find("mixedproxy_check_seconds_count"),
              std::string::npos);

    std::string err;
    EXPECT_EQ(run({"--metrics-out=/nonexistent_dir_mp/x.prom",
                   "fig9_message_passing"},
                  nullptr, &err),
              2);
    EXPECT_NE(err.find("cannot write"), std::string::npos);
}

TEST(DriverObs, ProfilerCountersAreJobsInvariant)
{
    const std::vector<std::string> inputs = {
        "fig9_message_passing", "fig2_iriw_weak", "fig8a_alias_fence",
        "fig4_const_alias_nofence", "fig8b_constant_nofence"};
    auto countersFor = [&](const std::string &jobs) {
        TempFile stats("jobs" + jobs + "_stats.json");
        std::vector<std::string> args = {
            "--jobs=" + jobs, "--stats-json=" + stats.path().string()};
        args.insert(args.end(), inputs.begin(), inputs.end());
        EXPECT_EQ(run(args), 0);
        std::string error;
        auto doc = json::parse(stats.contents(), &error);
        EXPECT_TRUE(doc) << error;
        // Every counter is deterministic; none measures wall clock.
        std::map<std::string, double> flat;
        for (const auto &[name, value] : at(*doc, "counters").object)
            flat["counters." + name] = value.number;
        for (const auto &[section, members] :
             at(*doc, "enum_profile").object) {
            for (const auto &[name, value] : members.object)
                flat[section + "." + name] = value.number;
        }
        return flat;
    };
    auto serial = countersFor("1");
    auto parallel = countersFor("4");
    EXPECT_EQ(serial, parallel);
    EXPECT_GT(serial.at("counters.checker.candidates"), 0.0);
    EXPECT_GT(serial.at("rejections.causality_b"), 0.0);
}

TEST(DriverObs, SessionIsDisabledAgainAfterRun)
{
    ASSERT_EQ(run({"--timing", "fig9_message_passing"}), 0);
    EXPECT_FALSE(obs::enabled());
    // A run without sinks binds no session at all.
    ASSERT_EQ(run({"fig9_message_passing"}), 0);
    EXPECT_FALSE(obs::enabled());
}

} // namespace
