/**
 * @file
 * Golden suite for the CLI's report path: a fixed list of nvlitmus
 * command lines — multi-input reports with every report section on, at
 * one and at four workers, --lint-only batches, a failing batch and
 * batches with an unreadable input, pre-solver reports and --all
 * tables under both models, and the pre-solver's differential sweep —
 * must reproduce the checked-in
 * transcript of stdout, stderr and exit code byte-for-byte.
 *
 * On a mismatch the test writes the transcript it produced to
 * reports_golden.actual in its working directory. If the change in
 * output is intentional, regenerate with:
 *
 *   build/tests/test_nvlitmus --gtest_filter='ReportsGolden.*'
 *   cp build/tests/reports_golden.actual \
 *       tests/nvlitmus/goldens/reports.golden
 */

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nvlitmus/driver.hh"

namespace {

using namespace mixedproxy;

const std::vector<std::vector<std::string>> kCommands = {
    {"--witness", "--dot", "--compare", "--lint", "--simulate=50",
     "--jobs", "1", "fig4_const_alias_proxy_fence", "fig8a_alias_fence",
     "fig9_message_passing"},
    {"--witness", "--dot", "--compare", "--lint", "--simulate=50",
     "--jobs", "4", "fig4_const_alias_proxy_fence", "fig8a_alias_fence",
     "fig9_message_passing"},
    {"--lint-only", "--jobs", "1", "fig4_const_alias_proxy_fence",
     "fig4_const_alias_generic_fence", "fig8a_alias_fence",
     "fig8a_alias_generic_fence", "fig9_message_passing"},
    {"--lint-only", "--jobs", "4", "fig4_const_alias_proxy_fence",
     "fig4_const_alias_generic_fence", "fig8a_alias_fence",
     "fig8a_alias_generic_fence", "fig9_message_passing"},
    {"--lint-only", "fig4_const_alias_proxy_fence", "fig9_message_passing"},
    {"--model", "ptx60", "--jobs", "2", "fig9_message_passing",
     "fig4_const_alias_nofence"},
    {"fig9_message_passing", "no_such_input.litmus", "fig8a_alias_fence"},
    {"--lint-only", "fig9_message_passing", "no_such_input.litmus"},
    {"--conform", "no_such_a.trace", "--conform", "no_such_b.trace",
     "--jobs", "2"},
    // Every built-in with an assertion the pre-solver's witness
    // schedules discharge, and the pre-solver's soundness sweep.
    {"--presolve=only", "fig4_const_alias_generic_fence",
     "fig9_message_passing", "lb_data_dependency", "atom_cas_mutex",
     "s_release_acquire", "proxy_fence_is_not_sync",
     "nc_load_races_with_store", "barrier_constant_no_fence",
     "barrier_cross_cta_useless", "async_copy_no_wait",
     "async_copy_stale_source", "async_copy_racing_store"},
    {"--presolve-diff"},
    // The pre-solver in front of the whole corpus under both models,
    // and a discharged plus an inconclusive test with both models'
    // outcome sets compared.
    {"--all", "--presolve"},
    {"--all", "--presolve", "--model", "ptx60"},
    {"--all", "--presolve=only"},
    {"--all", "--presolve=only", "--model", "ptx60"},
    {"--presolve", "--witness", "--compare", "fig9_message_passing",
     "fig2_iriw_weak"},
};

std::string
transcript()
{
    std::string text;
    for (const auto &args : kCommands) {
        std::ostringstream out;
        std::ostringstream err;
        const int code = nvlitmus::runCli(args, out, err);
        text += "$ nvlitmus";
        for (const std::string &arg : args)
            text += " " + arg;
        text += "\nexit " + std::to_string(code) + "\n--- stdout\n" +
                out.str() + "--- stderr\n" + err.str();
    }
    return text;
}

TEST(ReportsGolden, CliTranscriptsAreByteIdentical)
{
    const std::string actual = transcript();
    std::ifstream golden(std::string(MIXEDPROXY_NVLITMUS_GOLDEN_DIR) +
                         "/reports.golden");
    std::ostringstream expected;
    expected << golden.rdbuf();
    if (!golden.is_open() || actual != expected.str()) {
        std::ofstream("reports_golden.actual") << actual;
        FAIL() << "CLI transcript differs from "
                  "tests/nvlitmus/goldens/reports.golden; the produced "
                  "transcript is in reports_golden.actual (see the file "
                  "comment to regenerate)";
    }
}

} // namespace
