/**
 * @file
 * Golden suite for the exhaustive checker: every built-in test, checked
 * under both models with witnesses, must reproduce the checked-in
 * transcript byte-for-byte. Per test and model the transcript records
 * the budget flag, every deterministic CheckStats counter (through
 * CheckStats::publish, so the names match --stats-json), each allowed
 * outcome with an FNV-1a hash of its witness's toDot() rendering, and
 * each assertion verdict with its detail. It therefore pins which
 * candidate the enumeration picks as each outcome's witness, not only
 * the outcome set.
 *
 * On a mismatch the test writes the transcript it produced to
 * model_golden.actual in its working directory. If the change in output
 * is intentional, regenerate with:
 *
 *   build/tests/test_model --gtest_filter='CheckerGolden.*'
 *   cp build/tests/model_golden.actual \
 *       tests/model/goldens/check_results.golden
 */

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "litmus/registry.hh"
#include "model/checker.hh"
#include "obs/obs.hh"

namespace {

using namespace mixedproxy;
using model::CheckOptions;
using model::CheckResult;
using model::Checker;
using model::ProxyMode;

/** 64-bit FNV-1a: portable, so the golden never drifts by platform. */
std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** One test under one model, rendered deterministically. */
std::string
record(const litmus::LitmusTest &test, ProxyMode mode)
{
    // A bound session makes the checker fill the edge-count counters
    // too (they are only gathered while observability is on).
    obs::Session session;
    session.enable();
    CheckOptions opts;
    opts.mode = mode;
    CheckResult result;
    {
        obs::ScopedSession bind(&session);
        result = Checker(opts).check(test);
    }
    session.disable();

    std::ostringstream os;
    os << "== " << test.name() << " [" << model::toString(mode) << "]\n";
    os << "budget_exceeded " << result.budgetExceeded << "\n";
    obs::MetricsRegistry counters;
    result.stats.publish(counters);
    for (const auto &[name, value] : counters.counters())
        os << "  " << name << " " << value << "\n";
    for (const auto &outcome : result.outcomes) {
        os << "outcome " << outcome.toString();
        auto it = result.witnesses.find(outcome);
        if (it != result.witnesses.end())
            os << " witness " << hex(fnv1a(it->second.toDot(test.name())));
        os << "\n";
    }
    for (const auto &check : result.assertions) {
        os << litmus::toString(check.assertion.kind) << " "
           << check.assertion.text << ": "
           << (check.passed ? "PASS" : "FAIL");
        if (!check.detail.empty())
            os << " (" << check.detail << ")";
        os << "\n";
    }
    return os.str();
}

std::string
transcript()
{
    std::string out;
    for (const std::string &name : litmus::testNames()) {
        const auto &test = litmus::testByName(name);
        for (ProxyMode mode : {ProxyMode::Ptx60, ProxyMode::Ptx75})
            out += record(test, mode);
    }
    return out;
}

TEST(CheckerGolden, RegistryResultsAreByteIdentical)
{
    const std::string actual = transcript();
    std::ifstream golden(std::string(MIXEDPROXY_MODEL_GOLDEN_DIR) +
                         "/check_results.golden");
    std::ostringstream expected;
    expected << golden.rdbuf();
    if (!golden.is_open() || actual != expected.str()) {
        std::ofstream("model_golden.actual") << actual;
        FAIL() << "checker results drifted from the golden; the actual "
                  "transcript is in model_golden.actual (see the file "
                  "comment to regenerate)";
    }
}

} // namespace
