/**
 * @file
 * Seeded mutational fuzz of the litmus parser (litmus::parseTest) and
 * the condition parser (litmus::parseCondition).
 *
 * Seeds are real inputs: every built-in's printed text and the
 * checked-in corpus files for parseTest, every built-in assertion's
 * condition text for parseCondition. Each mutant takes one to four
 * byte flips, grammar-byte or keyword inserts, deletions, truncations
 * or line duplications, deletions and swaps from a fixed mt19937_64
 * stream, so a failure replays exactly. Properties: nothing crashes
 * (the sanitizer CI job runs this too), every rejection is a FatalError
 * with a message, and an accepted input prints to text that parses
 * back to the same text.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "litmus/expr.hh"
#include "litmus/parser.hh"
#include "litmus/registry.hh"
#include "relation/error.hh"

namespace {

using namespace mixedproxy;

constexpr std::size_t kTestMutantsPerSeed = 150;
constexpr std::size_t kConditionMutantsPerSeed = 150;

std::vector<std::string>
testSeeds()
{
    std::vector<std::string> out;
    for (const litmus::LitmusTest &test : litmus::allTests())
        out.push_back(test.toString());
    std::vector<std::filesystem::path> files;
    for (const auto &entry :
         std::filesystem::directory_iterator(MIXEDPROXY_CORPUS_DIR)) {
        if (entry.path().extension() == ".litmus")
            files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end()); // a fixed seed order
    for (const auto &path : files) {
        std::ifstream in(path);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        out.push_back(buffer.str());
    }
    return out;
}

std::vector<std::string>
conditionSeeds()
{
    std::vector<std::string> out;
    for (const litmus::LitmusTest &test : litmus::allTests()) {
        for (const litmus::Assertion &assertion : test.assertions())
            out.push_back(assertion.text);
    }
    return out;
}

std::string
mutate(std::string text, std::mt19937_64 &rng)
{
    static const std::string alphabet = "[]():.,#/!=&|-+ \n\t\r"
                                        "0123456789xtr\x01\x7f\xc3\xff";
    static const char *const tokens[] = {
        "name:", "alias ", "init ", "thread ", " cta ", " gpu ",
        "require:", "permit:", "forbid:", "st.global.u32 ",
        "ld.acquire.gpu.u32 ", "atom.cas.u32 ", "fence.proxy.alias",
        "cp.async.ca.shared.global ", "bar.sync ", ".const", "0x",
        "18446744073709551616", "t0.r1", "[x]", " == ", " && ", "!(",
    };
    const int edits = 1 + static_cast<int>(rng() % 4);
    for (int e = 0; e < edits; e++) {
        const std::size_t at = text.empty() ? 0 : rng() % text.size();
        switch (rng() % 7) {
          case 0: // flip one bit
            if (!text.empty())
                text[at] = static_cast<char>(text[at] ^ (1 << (rng() % 8)));
            break;
          case 1: // insert a grammar-relevant byte
            text.insert(at, 1, alphabet[rng() % alphabet.size()]);
            break;
          case 2: // insert a keyword or operand
            text.insert(at, tokens[rng() % std::size(tokens)]);
            break;
          case 3: // delete a byte
            if (!text.empty())
                text.erase(at, 1);
            break;
          case 4: // truncate
            text.resize(at);
            break;
          case 5: { // duplicate or delete the line holding `at`
            const std::size_t begin = text.rfind('\n', at);
            const std::size_t from = begin == std::string::npos ? 0
                                                                : begin + 1;
            const std::size_t end = text.find('\n', at);
            const std::size_t to =
                end == std::string::npos ? text.size() : end + 1;
            const std::string line = text.substr(from, to - from);
            if (rng() % 2)
                text.insert(from, line);
            else
                text.erase(from, to - from);
            break;
          }
          case 6: { // swap two lines
            std::vector<std::string> lines;
            std::istringstream in(text);
            for (std::string line; std::getline(in, line);)
                lines.push_back(line);
            if (lines.size() < 2)
                break;
            std::swap(lines[rng() % lines.size()],
                      lines[rng() % lines.size()]);
            text.clear();
            for (const std::string &line : lines)
                text += line + "\n";
            break;
          }
        }
    }
    return text;
}

/**
 * Run @p parse over @p text and check the properties: it either throws
 * a FatalError with a message, or its printed result re-parses to the
 * same text.
 */
template <typename Parse>
void
check(const std::string &text, Parse parse)
{
    std::string printed;
    try {
        printed = parse(text);
    } catch (const FatalError &e) {
        ASSERT_NE(std::string(e.what()), "") << "input:\n" << text;
        return;
    } catch (const std::exception &e) {
        FAIL() << "rejected without a FatalError: " << e.what()
               << "\ninput:\n" << text;
    }
    std::string again;
    try {
        again = parse(printed);
    } catch (const std::exception &e) {
        FAIL() << "printed form does not parse: " << e.what()
               << "\ninput:\n" << text << "\nprinted:\n" << printed;
    }
    ASSERT_EQ(again, printed) << "input:\n" << text;
}

std::string
printTest(const std::string &text)
{
    return litmus::parseTest(text).toString();
}

std::string
printCondition(const std::string &text)
{
    return litmus::parseCondition(text)->toString();
}

TEST(LitmusFuzz, SeedsParseAndRoundTrip)
{
    const std::vector<std::string> tests = testSeeds();
    EXPECT_GT(tests.size(), litmus::allTests().size());
    for (const std::string &seed : tests) {
        EXPECT_NO_THROW(litmus::parseTest(seed)) << seed;
        check(seed, printTest);
    }
    for (const std::string &seed : conditionSeeds()) {
        EXPECT_NO_THROW(litmus::parseCondition(seed)) << seed;
        check(seed, printCondition);
    }
}

TEST(LitmusFuzz, TestMutantsNeverCrashAndRoundTrip)
{
    const std::vector<std::string> inputs = testSeeds();
    for (std::uint64_t seed = 0; seed < inputs.size(); seed++) {
        std::mt19937_64 rng(0x6c69746d + seed);
        for (std::size_t i = 0; i < kTestMutantsPerSeed; i++) {
            check(mutate(inputs[seed], rng), printTest);
            if (HasFatalFailure())
                return;
        }
    }
}

TEST(LitmusFuzz, ConditionMutantsNeverCrashAndRoundTrip)
{
    const std::vector<std::string> inputs = conditionSeeds();
    for (std::uint64_t seed = 0; seed < inputs.size(); seed++) {
        std::mt19937_64 rng(0x636f6e64 + seed);
        for (std::size_t i = 0; i < kConditionMutantsPerSeed; i++) {
            check(mutate(inputs[seed], rng), printCondition);
            if (HasFatalFailure())
                return;
        }
    }
}

} // namespace
