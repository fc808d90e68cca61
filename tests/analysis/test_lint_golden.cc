/**
 * @file
 * Golden-file test for the lint corpus: `nvlitmus --lint-only` over
 * tests/analysis/cases/ must reproduce the checked-in transcript
 * byte-for-byte. The analyzer's stable diagnostic IDs (E001, W101, …)
 * and the canonical report ordering (analysis/diagnostic.hh
 * orderedBefore) are output contracts — this test is what enforces
 * them, and the CI lint-corpus job byte-compares the same transcript
 * against the installed binary. Regenerate with:
 *
 *   build/tools/nvlitmus --lint-only tests/analysis/cases/?*.litmus \
 *       > tests/analysis/goldens/lint_corpus.golden
 *
 * (`?*` matches the same files as a bare star; a slash followed by a
 * star would open a nested comment here.)
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nvlitmus/driver.hh"

namespace {

using namespace mixedproxy;

TEST(LintGolden, CorpusTranscriptIsByteIdentical)
{
    namespace fs = std::filesystem;

    // Shell-glob order (lexicographic), exactly how the golden was
    // produced.
    std::vector<std::string> inputs;
    for (const auto &entry :
         fs::directory_iterator(MIXEDPROXY_ANALYSIS_CASES_DIR)) {
        if (entry.path().extension() == ".litmus")
            inputs.push_back(entry.path().string());
    }
    std::sort(inputs.begin(), inputs.end());
    ASSERT_FALSE(inputs.empty());

    std::vector<std::string> args = {"--lint-only"};
    args.insert(args.end(), inputs.begin(), inputs.end());

    std::ostringstream out, err;
    int code = nvlitmus::runCli(args, out, err);
    EXPECT_EQ(code, 1) << err.str(); // the corpus contains findings

    std::ifstream golden(std::string(MIXEDPROXY_ANALYSIS_GOLDEN_DIR) +
                         "/lint_corpus.golden");
    ASSERT_TRUE(golden.is_open());
    std::ostringstream expected;
    expected << golden.rdbuf();

    EXPECT_EQ(out.str(), expected.str())
        << "lint output drifted from the golden; if the change is "
           "intentional, regenerate tests/analysis/goldens/"
           "lint_corpus.golden (see file header)";
}

} // namespace
