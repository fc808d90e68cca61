/**
 * @file
 * Golden for the suite `nvlitmus --synth=3 --synth-out=DIR` writes:
 * one line per file, in byte order of the file names, giving the name,
 * the size in bytes and the SHA-256 of the contents. Any change to the
 * set of interesting tests, their names, their order-derived numbering
 * or their rendered text shows up here.
 *
 * On a mismatch the test writes the listing it produced to
 * synth3_suite.actual in its working directory. If the change in
 * output is intentional, regenerate with:
 *
 *   build/tests/test_synth --gtest_filter='SynthSuiteGolden.*'
 *   cp build/tests/synth3_suite.actual \
 *       tests/synth/goldens/synth3_suite.golden
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/cache.hh"
#include "nvlitmus/driver.hh"

namespace {

using namespace mixedproxy;

std::string
readFile(const std::filesystem::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

TEST(SynthSuiteGolden, Synth3SuiteMatches)
{
    namespace fs = std::filesystem;
    const fs::path dir = "synth3_suite_tmp";
    fs::remove_all(dir);
    std::ostringstream out;
    std::ostringstream err;
    ASSERT_EQ(nvlitmus::runCli({"--synth=3", "--synth-out=" + dir.string()},
                               out, err),
              0)
        << err.str();

    std::vector<std::string> names;
    for (const auto &entry : fs::directory_iterator(dir))
        names.push_back(entry.path().filename().string());
    std::sort(names.begin(), names.end());
    std::string listing;
    for (const std::string &name : names) {
        const std::string bytes = readFile(dir / name);
        listing += name + " " + std::to_string(bytes.size()) + " " +
                   engine::sha256Hex(bytes) + "\n";
    }
    fs::remove_all(dir);

    const std::string expected = readFile(
        fs::path(MIXEDPROXY_SYNTH_GOLDEN_DIR) / "synth3_suite.golden");
    if (listing != expected)
        std::ofstream("synth3_suite.actual") << listing;
    EXPECT_EQ(listing, expected);
}

} // namespace
